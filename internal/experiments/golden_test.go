package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden compares a rendered report byte for byte with
// testdata/<name>.golden. The simulation is deterministic, so any
// difference is a behaviour change: the failure prints the differing
// lines, and a deliberate change means rewriting the golden file by
// hand and saying why in CHANGES.md.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s: %v", name, err)
	}
	if string(want) != got {
		t.Errorf("%s differs from %s:\n%s", name, path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines that differ between want and got, by line
// number, as "-want" / "+got" pairs.
func lineDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if i < len(w) {
			fmt.Fprintf(&b, "%4d -%s\n", i+1, wl)
		}
		if i < len(g) {
			fmt.Fprintf(&b, "%4d +%s\n", i+1, gl)
		}
	}
	return b.String()
}
