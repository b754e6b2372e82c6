package bench

// Fig10aTable computes the full static-count table at the default
// sizes on the SP2 processor counts.
func Fig10aTable() ([]CountRow, error) {
	var rows []CountRow
	for _, pr := range Programs() {
		r, err := StaticCounts(pr, pr.DefaultN, pr.Procs["SP2"], nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	// Merge duplicate (bench, routine, type) rows produced by two
	// programs of one routine (none today) and drop zero rows that the
	// paper does not report.
	var out []CountRow
	for _, r := range rows {
		if r.Orig == 0 && r.NoRed == 0 && r.Comb == 0 {
			continue
		}
		out = append(out, r)
	}
	return out, nil
}
