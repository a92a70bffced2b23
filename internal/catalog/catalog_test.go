package catalog

import (
	"math"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumEvents = 500
	a, err := Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs between identical seeds", i)
		}
	}
	c, err := Generate(cfg, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Events {
		if a.Events[i].Lat == c.Events[i].Lat {
			same++
		}
	}
	if same > a.Len()/10 {
		t.Fatalf("different seeds produced %d/%d identical positions", same, a.Len())
	}
}

func TestGenerateRateNormalization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumEvents = 2000
	cfg.MeanEventsPerYear = 7.5
	c, err := Generate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.TotalRate()-7.5) > 1e-9 {
		t.Fatalf("TotalRate = %v, want 7.5", c.TotalRate())
	}
}

func TestGeneratePerilMix(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumEvents = 20000
	c, err := Generate(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, NumPerils)
	for _, ev := range c.Events {
		counts[ev.Peril]++
	}
	mix := []float64{0.25, 0.20, 0.25, 0.20, 0.10} // the documented mix, not perilMix itself
	total := 0
	for p, n := range counts {
		total += n
		want := mix[p] * float64(cfg.NumEvents)
		if math.Abs(float64(n)-want) > 5*math.Sqrt(want) {
			t.Errorf("peril %v count %d, want ~%v", Peril(p), n, want)
		}
	}
	if total != cfg.NumEvents {
		t.Fatalf("peril counts sum to %d, want %d", total, cfg.NumEvents)
	}
}

func TestEventsWithinRegions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumEvents = 3000
	c, err := Generate(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	regions := map[uint16]Region{}
	for _, r := range DefaultRegions() {
		regions[r.ID] = r
	}
	for _, ev := range c.Events {
		r, ok := regions[ev.RegionID]
		if !ok {
			t.Fatalf("event %d has unknown region %d", ev.ID, ev.RegionID)
		}
		if ev.Lat < r.LatMin || ev.Lat > r.LatMax || ev.Lon < r.LonMin || ev.Lon > r.LonMax {
			t.Fatalf("event %d outside its region box", ev.ID)
		}
		if ev.AnnualRate <= 0 {
			t.Fatalf("event %d has non-positive rate", ev.ID)
		}
		if ev.RadiusKm <= 0 {
			t.Fatalf("event %d has non-positive radius", ev.ID)
		}
		if ev.ID == 0 {
			t.Fatal("event ID 0 is reserved")
		}
	}
}

func TestLookup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumEvents = 100
	c, _ := Generate(cfg, 3)
	ev, ok := c.Lookup(50)
	if !ok || ev.ID != 50 {
		t.Fatalf("Lookup(50) = %+v, %v", ev, ok)
	}
	if _, ok := c.Lookup(10_000); ok {
		t.Fatal("Lookup of absent ID should fail")
	}
}

func TestRatesVectorAlignment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumEvents = 64
	c, _ := Generate(cfg, 5)
	rates := c.Rates()
	if len(rates) != c.Len() {
		t.Fatal("length mismatch")
	}
	var sum float64
	for i, r := range rates {
		if r != c.Events[i].AnnualRate {
			t.Fatalf("rate %d misaligned", i)
		}
		sum += r
	}
	if math.Abs(sum-c.TotalRate()) > 1e-9 {
		t.Fatal("rates don't sum to TotalRate")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{NumEvents: 0}, 1); err == nil {
		t.Error("NumEvents=0 should error")
	}
}

func TestPerilString(t *testing.T) {
	want := map[Peril]string{Earthquake: "EQ", Hurricane: "HU", Flood: "FL", WinterStorm: "WS", Tornado: "TO"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if Peril(99).String() != "Peril(99)" {
		t.Error("unknown peril formatting")
	}
}

func TestNewCatalogIndexes(t *testing.T) {
	events := []Event{
		{ID: 5, Peril: Earthquake, AnnualRate: 0.5, RadiusKm: 10},
		{ID: 9, Peril: Flood, AnnualRate: 0.25, RadiusKm: 10},
	}
	c := NewCatalog(events)
	if c.TotalRate() != 0.75 {
		t.Fatalf("TotalRate = %v", c.TotalRate())
	}
	if ev, ok := c.Lookup(9); !ok || ev.Peril != Flood {
		t.Fatal("lookup failed")
	}
}
