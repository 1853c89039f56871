package prefetch

// InWindow exposes the off-peak window check to the external tests.
func (c Config) InWindow(h int) bool { return c.inWindow(h) }
