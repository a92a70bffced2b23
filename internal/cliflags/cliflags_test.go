package cliflags

import (
	"flag"
	"slices"
	"testing"
)

// A binder's default is the field's value when it binds, a parsed flag
// lands in the field, and an unparsed one leaves it alone.
func TestBindersSetTheirFields(t *testing.T) {
	saved := flag.CommandLine
	t.Cleanup(func() { flag.CommandLine = saved })
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)

	seed, workers, rho := uint64(42), 3, 0.25
	var dims []string
	Seed(&seed)
	Workers(&workers)
	Rho(&rho)
	CubeDims(&dims)
	if got := flag.Lookup("seed").DefValue; got != "42" {
		t.Fatalf("-seed default %q, want 42", got)
	}
	if err := flag.CommandLine.Parse([]string{"-seed", "7", "-rho", "0", "-cube-dims", " region,,lob ,"}); err != nil {
		t.Fatal(err)
	}
	if seed != 7 || workers != 3 || rho != 0 {
		t.Fatalf("seed, workers, rho = %d, %d, %g; want 7, 3, 0", seed, workers, rho)
	}
	if !slices.Equal(dims, []string{"region", "lob"}) {
		t.Fatalf("-cube-dims %q, want [region lob]", dims)
	}
}
