package stats

import (
	"strings"
	"testing"
	"time"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestPercentilesAndMedian(t *testing.T) {
	l := NewLatencies(10)
	for i := 1; i <= 100; i++ {
		l.Add(us(i))
	}
	if got := l.Median(); got != us(50) {
		t.Fatalf("median=%v", got)
	}
	if got := l.Percentile(99); got != us(99) {
		t.Fatalf("p99=%v", got)
	}
	if got := l.Percentile(1); got != us(1) {
		t.Fatalf("p1=%v", got)
	}
	if got := l.Max(); got != us(100) {
		t.Fatalf("max=%v", got)
	}
	if l.Len() != 100 {
		t.Fatalf("len=%d", l.Len())
	}
}

func TestEmptyCollector(t *testing.T) {
	l := NewLatencies(0)
	if l.Median() != 0 || l.Mean() != 0 || l.Max() != 0 {
		t.Fatal("empty stats not zero")
	}
	if l.FractionBelow(us(1)) != 0 {
		t.Fatal("empty fraction")
	}
	if l.CDF(3, 2) != nil {
		t.Fatal("empty CDF")
	}
}

func TestMean(t *testing.T) {
	l := NewLatencies(0)
	l.Add(us(10))
	l.Add(us(20))
	l.Add(us(30))
	if got := l.Mean(); got != us(20) {
		t.Fatalf("mean=%v", got)
	}
}

func TestFractionBelow(t *testing.T) {
	l := NewLatencies(0)
	for i := 0; i < 100; i++ {
		l.Add(us(i * 10)) // 0..990
	}
	if got := l.FractionBelow(us(250)); got != 0.25 {
		t.Fatalf("fraction=%v", got)
	}
	if got := l.FractionBelow(us(10000)); got != 1.0 {
		t.Fatalf("fraction=%v", got)
	}
	// Adding after sorting re-sorts correctly.
	l.Add(us(1))
	if got := l.FractionBelow(us(2)); got <= 0 {
		t.Fatalf("fraction after add=%v", got)
	}
}

func TestCDFMonotonic(t *testing.T) {
	l := NewLatencies(0)
	for i := 1; i <= 1000; i++ {
		l.Add(us(i))
	}
	pts := l.CDF(5, 4)
	if len(pts) != 21 {
		t.Fatalf("points=%d", len(pts))
	}
	prev := -1.0
	for _, p := range pts {
		if p.Fraction < prev {
			t.Fatal("CDF not monotonic")
		}
		prev = p.Fraction
	}
	if pts[len(pts)-1].Fraction != 1.0 {
		t.Fatalf("final fraction=%v", pts[len(pts)-1].Fraction)
	}
	s := FormatCDF(pts)
	if !strings.HasPrefix(s, "# microseconds cdf\n") || len(strings.Split(s, "\n")) < 21 {
		t.Fatalf("FormatCDF output: %q", s[:40])
	}
}

func TestTimerAndFormat(t *testing.T) {
	if got := FormatMicros(1500 * time.Nanosecond); got != "1.5µs" {
		t.Fatalf("FormatMicros=%q", got)
	}
}
