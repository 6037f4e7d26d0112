package mem

import "testing"

// BenchmarkSetAddFragmented exercises interval-set insertion into a
// fragmented set (the directory's hot path under fine-grained chunks).
func BenchmarkSetAddFragmented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var s Set
		for j := int64(0); j < 64; j++ {
			s.Add(Interval{Lo: j * 10, Hi: j*10 + 5})
		}
	}
}

// BenchmarkSetMissing measures hole enumeration over a fragmented set.
func BenchmarkSetMissing(b *testing.B) {
	var s Set
	for j := int64(0); j < 256; j++ {
		s.Add(Interval{Lo: j * 10, Hi: j*10 + 5})
	}
	q := Interval{Lo: 0, Hi: 2560}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Missing(q); len(got) == 0 {
			b.Fatal("expected holes")
		}
	}
}

// BenchmarkDirectoryReadWriteCycle measures the full consistency
// round trip: device read (transfer), device write (invalidate),
// flush.
func BenchmarkDirectoryReadWriteCycle(b *testing.B) {
	d := NewDirectory(2)
	buf := d.Register("a", 1<<20, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64(i%1024) * 1024
		iv := Interval{Lo: lo, Hi: lo + 1024}
		txs, err := d.AppendTransfersForRead(nil, buf, 1, iv)
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range txs {
			if err := d.Commit(tr); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.MarkWritten(buf, 1, iv); err != nil {
			b.Fatal(err)
		}
		txs, err = d.FlushTransfers(buf)
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range txs {
			if err := d.Commit(tr); err != nil {
				b.Fatal(err)
			}
		}
	}
}
