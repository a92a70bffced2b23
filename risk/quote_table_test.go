package risk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/yelt"
)

// Trial counts for the resident-table tests: n1 and n1b are both below
// n2, n3 is above it.
const (
	n1  = 700
	n1b = 900
	n2  = 1500
	n3  = 2300
)

var tableTrials = []int{n1, n1b, n2, n3}

type quoteKey struct{ contract, trials int }

// sameQuote reports whether two quotes agree in identity and, bit for
// bit, in every number (Elapsed aside).
func sameQuote(a, b *Quote) bool {
	if a.ContractID != b.ContractID || a.Trials != b.Trials {
		return false
	}
	for _, p := range [][2]float64{{a.AAL, b.AAL}, {a.StdDev, b.StdDev}, {a.TVaR99, b.TVaR99}, {a.PML250, b.PML250}, {a.Premium, b.Premium}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// oracleQuotes prices every (contract, trial count) pair twice without
// ever reading a grown table: as the first quote of a fresh study, and
// on a study with no table budget, whose quotes all take the fused
// generator and never touch the table.
// The two must already agree; the result is what every quote in these
// tests is held to.
func oracleQuotes(t *testing.T, seed uint64) map[quoteKey]*Quote {
	t.Helper()
	ctx := context.Background()
	streaming := NewStudy(smallConfig(seed))
	streaming.quoteBudget = 0
	want := make(map[quoteKey]*Quote)
	for c := 0; c < streaming.NumContracts(); c++ {
		for _, n := range tableTrials {
			sq, err := streaming.PriceContract(ctx, c, n)
			if err != nil {
				t.Fatal(err)
			}
			fq, err := NewStudy(smallConfig(seed)).PriceContract(ctx, c, n)
			if err != nil {
				t.Fatal(err)
			}
			if !sameQuote(sq, fq) {
				t.Fatalf("contract %d at %d trials: streaming %+v, fresh study %+v", c, n, sq, fq)
			}
			want[quoteKey{c, n}] = sq
		}
	}
	if info := streaming.QuoteTableInfo(); info.Trials != 0 || info.Grows != 0 || info.Streamed != int64(len(want)) {
		t.Fatalf("streaming study touched the quote table: %+v", info)
	}
	return want
}

// permutations returns every ordering of xs.
func permutations(xs []int) [][]int {
	if len(xs) <= 1 {
		return [][]int{append([]int(nil), xs...)}
	}
	var out [][]int
	for i := range xs {
		rest := append(append([]int(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{xs[i]}, p...))
		}
	}
	return out
}

// A quote must not depend on what was asked before it: in every order
// of arrival of n1 < n2, n1b < n2 and n3 > n2 the quotes equal the
// oracle's, the table ends at the largest count, and only a new
// largest count grows it.
func TestQuoteTableAnyArrivalOrder(t *testing.T) {
	ctx := context.Background()
	want := oracleQuotes(t, 41)
	study := NewStudy(smallConfig(41))
	if err := study.WarmQuotes(ctx); err != nil {
		t.Fatal(err)
	}
	if info := study.QuoteTableInfo(); info != (QuoteTableInfo{}) {
		t.Fatalf("WarmQuotes pre-generated a quote table: %+v", info)
	}
	for pi, order := range permutations(tableTrials) {
		study.quoteTable.Store(nil)
		before := study.QuoteTableInfo()
		grows, largest := int64(0), 0
		for i, n := range order {
			c := (pi + i) % study.NumContracts()
			q, err := study.PriceContract(ctx, c, n)
			if err != nil {
				t.Fatal(err)
			}
			if !sameQuote(q, want[quoteKey{c, n}]) {
				t.Fatalf("order %v: contract %d at %d trials\n got %+v\nwant %+v", order, c, n, q, want[quoteKey{c, n}])
			}
			if n > largest {
				largest = n
				grows++
			}
		}
		after := study.QuoteTableInfo()
		if after.Trials != n3 || after.Grows-before.Grows != grows || after.Hits-before.Hits != int64(len(order))-grows || after.Streamed != 0 {
			t.Fatalf("order %v: table went %+v -> %+v, want %d trials, %d grows", order, before, after, n3, grows)
		}
		if after.Bytes < yelt.ResidentBytes(n3, 0) {
			t.Fatalf("order %v: table of %d trials reports %d bytes", order, n3, after.Bytes)
		}
	}
}

// Ten goroutines across the contracts, each walking the trial counts in
// its own order against one cold study: every quote equals the
// oracle's whichever growths it raced with (run under -race in CI).
func TestQuoteTableConcurrentCallers(t *testing.T) {
	ctx := context.Background()
	want := oracleQuotes(t, 42)
	study := NewStudy(smallConfig(42))
	if err := study.WarmQuotes(ctx); err != nil {
		t.Fatal(err)
	}
	orders := permutations(tableTrials)
	const callers, rounds = 10, 3
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, n := range orders[(g*5+r)%len(orders)] {
					c := (g + i) % study.NumContracts()
					q, err := study.PriceContract(ctx, c, n)
					if err != nil {
						errc <- err
						return
					}
					if !sameQuote(q, want[quoteKey{c, n}]) {
						errc <- fmt.Errorf("caller %d: contract %d at %d trials: got %+v, want %+v", g, c, n, q, want[quoteKey{c, n}])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	info := study.QuoteTableInfo()
	total := int64(callers * rounds * len(tableTrials))
	if info.Trials != n3 || info.Grows < 1 || info.Grows > int64(len(tableTrials)) || info.Hits+info.Grows != total || info.Streamed != 0 {
		t.Fatalf("after %d quotes: %+v", total, info)
	}
}

// A trial count whose table would exceed the budget takes the fused
// generator: same quote, nothing published, and a table already
// published for smaller counts stays as it was.
func TestQuoteTableBudgetFallsBackToGenerator(t *testing.T) {
	ctx := context.Background()
	want := oracleQuotes(t, 43)
	check := func(study *Study, c, n int) {
		t.Helper()
		q, err := study.PriceContract(ctx, c, n)
		if err != nil {
			t.Fatal(err)
		}
		if !sameQuote(q, want[quoteKey{c, n}]) {
			t.Fatalf("contract %d at %d trials\n got %+v\nwant %+v", c, n, q, want[quoteKey{c, n}])
		}
	}

	tiny := NewStudy(smallConfig(43))
	tiny.quoteBudget = 1
	for c := 0; c < tiny.NumContracts(); c++ {
		check(tiny, c, n2)
	}
	if info := tiny.QuoteTableInfo(); info.Trials != 0 || info.Bytes != 0 || info.Grows != 0 || info.Hits != 0 || info.Streamed != int64(tiny.NumContracts()) {
		t.Fatalf("over-budget quotes: %+v", info)
	}

	// A budget between the estimates for n2 and n3 trials at this
	// study's 10 events a year.
	mid := NewStudy(smallConfig(43))
	mid.quoteBudget = yelt.ResidentBytes(n2, 10*n2) + 1024
	check(mid, 0, n2)
	published := mid.quoteTable.Load()
	check(mid, 1, n3)
	check(mid, 2, n1)
	if info := mid.QuoteTableInfo(); info.Trials != n2 || info.Grows != 1 || info.Hits != 1 || info.Streamed != 1 {
		t.Fatalf("budget between n2 and n3: %+v", info)
	}
	if mid.quoteTable.Load() != published {
		t.Fatal("an over-budget quote replaced the published table")
	}
}

// A growth whose context is cancelled returns the context's error and
// publishes nothing — the table stays absent, or stays the shorter one
// published before — and the next quote at that count succeeds.
func TestQuoteTableFailedGrowthDoesNotStick(t *testing.T) {
	want := oracleQuotes(t, 44)
	study := NewStudy(smallConfig(44))
	if err := study.WarmQuotes(context.Background()); err != nil {
		t.Fatal(err)
	}
	cancelledGrowth := func(n int) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		study.quoteGrowHook = cancel
		defer func() { study.quoteGrowHook = nil }()
		before := study.QuoteTableInfo()
		if _, err := study.PriceContract(ctx, 0, n); !errors.Is(err, context.Canceled) {
			t.Fatalf("quote at %d trials cancelled mid-growth: err = %v, want context.Canceled", n, err)
		}
		if after := study.QuoteTableInfo(); after != before {
			t.Fatalf("cancelled growth to %d trials changed the table: %+v -> %+v", n, before, after)
		}
	}
	succeeds := func(c, n int) {
		t.Helper()
		q, err := study.PriceContract(context.Background(), c, n)
		if err != nil {
			t.Fatalf("quote at %d trials after a cancelled growth: %v", n, err)
		}
		if !sameQuote(q, want[quoteKey{c, n}]) {
			t.Fatalf("contract %d at %d trials after a cancelled growth\n got %+v\nwant %+v", c, n, q, want[quoteKey{c, n}])
		}
	}

	cancelledGrowth(n1)
	if study.quoteTable.Load() != nil {
		t.Fatal("cancelled first growth published a table")
	}
	succeeds(0, n1)
	published := study.quoteTable.Load()

	cancelledGrowth(n3)
	if study.quoteTable.Load() != published {
		t.Fatal("cancelled growth replaced the published table")
	}
	succeeds(1, n1)
	succeeds(2, n3)
	if info := study.QuoteTableInfo(); info.Trials != n3 || info.Grows != 2 || info.Hits != 1 {
		t.Fatalf("after recovery: %+v", info)
	}

	// A quote whose context is already done when it would have to wait
	// for the growth lock gives up instead of queueing.
	study.quoteGrow <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := study.PriceContract(ctx, 0, n3+100); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled quote behind a growth: err = %v, want context.Canceled", err)
	}
	<-study.quoteGrow
}

// Once a table is published, a quote it covers returns while a longer
// growth is still running: completion order, not wall time.
func TestQuoteTableCoveredQuoteDoesNotWaitForGrowth(t *testing.T) {
	ctx := context.Background()
	want := oracleQuotes(t, 45)
	study := NewStudy(smallConfig(45))
	if _, err := study.PriceContract(ctx, 0, n2); err != nil {
		t.Fatal(err)
	}

	growing, release := make(chan struct{}), make(chan struct{})
	study.quoteGrowHook = func() {
		close(growing)
		<-release
	}
	var order []int
	var mu sync.Mutex
	finished := func(n int) {
		mu.Lock()
		order = append(order, n)
		mu.Unlock()
	}
	bigDone := make(chan error, 1)
	go func() {
		q, err := study.PriceContract(ctx, 1, n3)
		if err == nil && !sameQuote(q, want[quoteKey{1, n3}]) {
			err = fmt.Errorf("growing quote: got %+v, want %+v", q, want[quoteKey{1, n3}])
		}
		finished(n3)
		bigDone <- err
	}()
	<-growing // the growth to n3 now holds the lock and has generated nothing

	smallDone := make(chan error, 1)
	go func() {
		q, err := study.PriceContract(ctx, 2, n1)
		if err == nil && !sameQuote(q, want[quoteKey{2, n1}]) {
			err = fmt.Errorf("covered quote: got %+v, want %+v", q, want[quoteKey{2, n1}])
		}
		finished(n1)
		smallDone <- err
	}()
	// The timer only turns a deadlock into a failure; nothing is
	// asserted about how long the covered quote takes.
	select {
	case err := <-smallDone:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(time.Minute):
		t.Error("a quote the published table covers waited for the growth in progress")
	}
	close(release)
	if err := <-bigDone; err != nil {
		t.Error(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != n1 || order[1] != n3 {
		t.Fatalf("completion order %v, want [%d %d]", order, n1, n3)
	}
	if info := study.QuoteTableInfo(); info.Trials != n3 || info.Grows != 2 || info.Hits != 1 {
		t.Fatalf("after both quotes: %+v", info)
	}
}
