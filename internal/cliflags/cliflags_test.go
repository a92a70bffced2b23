package cliflags

import (
	"flag"
	"slices"
	"testing"
)

// A binder's default is the field's value when it binds, a parsed flag
// lands in the field, and an unparsed one leaves it alone.
func TestBindersSetTheirFields(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	seed, workers, rho := uint64(42), 3, 0.25
	var dims []string
	Seed(fs, &seed)
	Workers(fs, &workers)
	Rho(fs, &rho)
	CubeDims(fs, &dims)
	if got := fs.Lookup("seed").DefValue; got != "42" {
		t.Fatalf("-seed default %q, want 42", got)
	}
	if err := fs.Parse([]string{"-seed", "7", "-rho", "0", "-cube-dims", " region,,lob ,"}); err != nil {
		t.Fatal(err)
	}
	if seed != 7 || workers != 3 || rho != 0 {
		t.Fatalf("seed, workers, rho = %d, %d, %g; want 7, 3, 0", seed, workers, rho)
	}
	if !slices.Equal(dims, []string{"region", "lob"}) {
		t.Fatalf("-cube-dims %q, want [region lob]", dims)
	}
}
