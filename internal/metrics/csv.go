package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteSummaryCSV emits the summary as a two-section CSV: scalar
// metrics, then the return-period table — the export format analysts
// pull into spreadsheets and regulators ingest.
func WriteSummaryCSV(w io.Writer, s *Summary) error {
	cw := csv.NewWriter(w)
	rows := [][]string{
		{"metric", "value"},
		{"name", s.Name},
		{"trials", strconv.Itoa(s.Trials)},
		{"aal", formatF(s.AAL)},
		{"agg_stddev", formatF(s.AggStdDev)},
		{"var_99", formatF(s.VaR99)},
		{"tvar_99", formatF(s.TVaR99)},
		{"var_995", formatF(s.VaR995)},
		{"tvar_995", formatF(s.TVaR995)},
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return fmt.Errorf("metrics: csv: %w", err)
		}
	}
	if err := cw.Write([]string{"return_period_years", "oep", "aep"}); err != nil {
		return fmt.Errorf("metrics: csv: %w", err)
	}
	for _, row := range s.ReturnRows {
		rec := []string{
			formatF(row.ReturnPeriod), formatF(row.OEP), formatF(row.AEP),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("metrics: csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
