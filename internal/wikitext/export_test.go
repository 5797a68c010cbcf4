package wikitext

// ReferenceDigest is the parse tree's read of src's cited links and
// categories, the digest scan's reference, and ReferenceApply is the
// tree's edit, Apply's reference, for tests outside the package.
var (
	ReferenceDigest = referenceDigest
	ReferenceApply  = treeApply
)
