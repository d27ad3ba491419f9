package experiments

import (
	"bytes"
	"runtime"
	"testing"
)

// renderFig runs one figure and returns its rendered table bytes.
func renderFig(t *testing.T, id string, o Options) []byte {
	t.Helper()
	f, ok := ByID(id)
	if !ok {
		t.Fatalf("figure %s missing", id)
	}
	tb, err := f.Run(o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return append(buf.Bytes(), csv.Bytes()...)
}

// TestFigureTablesDeterministicAcrossWorkers renders a simulation-backed
// figure at GOMAXPROCS 1, 3 and 5, asserting the emitted tables (text and
// CSV) are byte-identical — the committed results/ directory must not
// depend on the core count.
func TestFigureTablesDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	o := Options{Quick: true, Seeds: 2, Ops: 500}

	runtime.GOMAXPROCS(1)
	want := renderFig(t, "fig10", o)

	for _, procs := range []int{3, 5} {
		runtime.GOMAXPROCS(procs)
		got := renderFig(t, "fig10", o)
		if !bytes.Equal(got, want) {
			t.Errorf("fig10 output differs at GOMAXPROCS %d:\n%s\nvs GOMAXPROCS 1:\n%s",
				procs, got, want)
		}
	}
}
