package server

// TimersArmed reports how many connections have their hold timer armed.
func (s *Server) TimersArmed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for c := range s.conns {
		c.mu.Lock()
		if c.timer.Armed() {
			n++
		}
		c.mu.Unlock()
	}
	return n
}
