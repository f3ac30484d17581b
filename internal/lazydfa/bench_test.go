package lazydfa

import "testing"

// BenchmarkLazyDFAMiss measures the miss path alone: every transition of
// the fed chunk is uncomputed, but every successor is already cached, so
// each miss is a Step into scratch plus an index probe. It reports
// allocations, which must stay at zero.
func BenchmarkLazyDFAMiss(b *testing.B) {
	r, chunk := warmMissRunner(b, false)
	b.ReportAllocs()
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forgetRows(r.m)
		r.Feed(chunk, false)
	}
}
