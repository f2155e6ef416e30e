package intern

import (
	"bytes"
	"testing"
)

// FuzzInternLoad feeds arbitrary bytes to Load, the decoder checkpoint bytes
// reach. Every input must give an error or a table that round-trips through
// Save: same symbols, same numbering, every string resolving to its own
// symbol. A panic fails the target.
func FuzzInternLoad(f *testing.F) {
	for _, words := range [][]string{nil, {"matrix"}, {"the", "matrix", ""}, {"x", "y", "x"}} {
		tab := New(0)
		for _, w := range words {
			tab.Intern(w)
		}
		var buf bytes.Buffer
		if err := tab.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("not a gob stream"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Load(bytes.NewReader(data))
		if err != nil {
			if tab != nil {
				t.Fatalf("Load returned a table with error %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := tab.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded table: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load of a re-saved table: %v", err)
		}
		if again.Len() != tab.Len() {
			t.Fatalf("round trip changed Len: %d -> %d", tab.Len(), again.Len())
		}
		for i := 0; i < tab.Len(); i++ {
			s := tab.StringOf(Sym(i))
			if got := again.StringOf(Sym(i)); got != s {
				t.Fatalf("symbol %d: %q -> %q", i, s, got)
			}
			if sym, ok := again.Sym(s); !ok || sym != Sym(i) {
				t.Fatalf("Sym(%q) = %d,%v after round trip, want %d", s, sym, ok, i)
			}
		}
	})
}
