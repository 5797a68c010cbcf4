package wikitext

// ReferenceDigest is the parse tree's read of src's cited links and
// categories, the digest scan's reference, for tests outside the
// package.
var ReferenceDigest = referenceDigest
