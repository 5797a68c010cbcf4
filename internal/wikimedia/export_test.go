package wikimedia

// Mine is MineHistory's fold without the memo: the reference the
// memoised result is held to.
func Mine(a *Article) ArticleHistory { return mine(a) }
