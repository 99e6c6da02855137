package dseq

// FillIndexed sets each local element from its global index
// (thread-local).
func (s *Doubles) FillIndexed(f func(global int) float64) {
	lo := s.Lo()
	for i := range s.local {
		s.local[i] = f(lo + i)
	}
}
