package risk

import (
	"context"
	"testing"
)

// Quotes must be mode-independent: PriceContract over the fused
// generator (a study with no table budget) equals the quote read from
// the resident table field-for-field (Elapsed aside).
func TestStreamingQuoteMatchesMaterialized(t *testing.T) {
	mat := NewStudy(smallConfig(11))
	str := NewStudy(smallConfig(11))
	str.quoteBudget = 0
	const trials = 4000
	mq, err := mat.PriceContract(context.Background(), 1, trials)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := str.PriceContract(context.Background(), 1, trials)
	if err != nil {
		t.Fatal(err)
	}
	if mq.ContractID != sq.ContractID || mq.Trials != sq.Trials {
		t.Fatalf("quote identity differs: %+v vs %+v", mq, sq)
	}
	if mq.AAL != sq.AAL || mq.StdDev != sq.StdDev || mq.TVaR99 != sq.TVaR99 ||
		mq.PML250 != sq.PML250 || mq.Premium != sq.Premium {
		t.Fatalf("quote numbers differ across modes:\nmaterialized %+v\nstreaming    %+v", mq, sq)
	}
}
