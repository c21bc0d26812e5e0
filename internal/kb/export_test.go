package kb

// ViewBuilds reports how many times the store's view has been built.
func (s *Store) ViewBuilds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.builds
}
