package store

// Materialised reports whether the stream holds a Seq() memo.
func (s *Stream) Materialised() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.memo != nil
}
