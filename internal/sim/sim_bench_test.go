package sim

import "testing"

// BenchmarkEngineDispatch measures raw event throughput: chained
// events, each scheduling its successor.
func BenchmarkEngineDispatch(b *testing.B) {
	e := NewEngine()
	n := 0
	var next Func
	next = func(int) {
		n++
		if n < b.N {
			e.After(1, next, 0)
		}
	}
	e.At(0, next, 0)
	b.ResetTimer()
	e.Run()
	if n != b.N && b.N > 0 {
		b.Fatalf("dispatched %d of %d", n, b.N)
	}
}

// BenchmarkEngineHeap measures queue behaviour with many pending
// events (heap pressure).
func BenchmarkEngineHeap(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.At(Time(i%1000), Func(func(int) {}), 0)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceAcquire measures the FIFO resource fast path.
func BenchmarkResourceAcquire(b *testing.B) {
	e := NewEngine()
	r := NewResource(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(10, nil, nil, 0)
	}
}
