package trace

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV writes the trace as "seconds,watts" rows with a header, the
// format the figure data files use (one file per load level, as in the
// paper's gnuplot inputs).
func (p *PowerTrace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "power_w"}); err != nil {
		return err
	}
	for _, s := range p.Samples {
		rec := []string{
			strconv.FormatFloat(s.At.Seconds(), 'f', 3, 64),
			strconv.FormatFloat(float64(s.Power), 'f', 2, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
