package metrics

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

func TestWriteSummaryCSV(t *testing.T) {
	tbl := buildYLT(5000)
	s, err := Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSummaryCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"aal", "tvar_99", "return_period_years"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
	// Parse back: the header section has 2 columns, the RP section 3;
	// use FieldsPerRecord=-1 and count RP rows.
	r := csv.NewReader(strings.NewReader(out))
	r.FieldsPerRecord = -1
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var rpRows int
	var inRP bool
	for _, rec := range recs {
		if rec[0] == "return_period_years" {
			inRP = true
			continue
		}
		if inRP {
			if len(rec) != 3 {
				t.Fatalf("RP row has %d fields: %v", len(rec), rec)
			}
			rpRows++
			if _, err := strconv.ParseFloat(rec[1], 64); err != nil {
				t.Fatalf("OEP not numeric: %v", rec)
			}
		}
	}
	if rpRows != len(s.ReturnRows) {
		t.Fatalf("CSV has %d RP rows, summary %d", rpRows, len(s.ReturnRows))
	}
}
