package dseq

// FillIndexed sets each local element from its global index
// (thread-local).
func (s *Seq[T]) FillIndexed(f func(global int) T) {
	lo := s.Lo()
	for i := range s.local {
		s.local[i] = f(lo + i)
	}
}
