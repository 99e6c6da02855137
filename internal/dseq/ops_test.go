package dseq

import (
	"testing"

	"pardis/internal/dist"
	"pardis/internal/mp"
	"pardis/internal/rts"
)

func TestFillIndexed(t *testing.T) {
	s, _ := NewDoubles(10, dist.Block(), 2, 1) // owns [5,10)
	s.FillIndexed(func(g int) float64 { return float64(g) })
	if s.LocalData()[0] != 5 || s.LocalData()[4] != 9 {
		t.Fatalf("fill indexed: %v", s.LocalData())
	}
}

// The plane dimension A/Bs the one-sided window fast path (the
// default for float64 sequences on a window-capable thread) against
// the tagged-send fallback (capability hidden behind noWindow).
func BenchmarkRedistributeBlockToProportions(b *testing.B) {
	for _, plane := range []string{"window", "fallback"} {
		b.Run("plane="+plane, func(b *testing.B) {
			prop, _ := dist.Proportions(1, 2, 3, 2)
			const L = 1 << 15
			b.SetBytes(L * 8)
			err := mp.Run(4, func(proc *mp.Proc) error {
				var th rts.Thread = rts.NewMessagePassing(proc)
				if plane == "fallback" {
					th = noWindow{th}
				}
				blockL := dist.Block().MustApply(L, 4)
				propL := prop.MustApply(L, 4)
				s, err := NewDoubles(L, dist.Block(), 4, proc.Rank())
				if err != nil {
					return err
				}
				for i := 0; i < b.N; i++ {
					target := propL
					if i%2 == 1 {
						target = blockL
					}
					if err := s.Redistribute(th, target); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkGatherDoubles(b *testing.B) {
	const L = 1 << 15
	b.SetBytes(L * 8)
	err := mp.Run(4, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		s, err := NewDoubles(L, dist.Block(), 4, th.Rank())
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if _, err := GatherDoubles(s, th, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
