package yelt

import "io"

// StreamTrials reads a serialized table (the WriteTo format) from r
// and delivers trials one at a time without materializing the table —
// the access pattern for YELTs that exceed memory, per the paper's
// "data needs to be scanned over" observation. occs is only valid
// during the call; visit must copy what it retains. Memory use is
// bounded by the largest single trial year plus the counts header.
func StreamTrials(r io.Reader, visit func(trial int, occs []Occurrence) error) error {
	rd, err := NewReader(r)
	if err != nil {
		return err
	}
	var year Table
	for trial := 0; trial < rd.NumTrials(); trial++ {
		year.Offsets, year.Occs = year.Offsets[:0], year.Occs[:0]
		if err := rd.Next(1, &year); err != nil {
			return err
		}
		if err := visit(trial, year.Occs); err != nil {
			return err
		}
	}
	return nil
}
