package wikimedia

// Mine is MineHistory's fold without the memo and without the wiki's
// RevisionLinks: every revision is parsed afresh. It is the reference
// the memoised result is held to.
func Mine(a *Article) ArticleHistory { return mine(a, nil) }

// Parses returns how many times the package has parsed revision text.
func Parses() int64 { return parses.Load() }
