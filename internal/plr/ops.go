package plr

// Resample returns the primary-dimension positions of the sequence at
// a fixed interval across its span — the inverse of segmentation, used
// for export and plotting.
func (s Sequence) Resample(interval float64, dim int) []Sample {
	if len(s) < 2 || interval <= 0 || dim < 0 || dim >= s.Dims() {
		return nil
	}
	var out []Sample
	for t := s[0].T; t <= s[len(s)-1].T; t += interval {
		pos, _ := s.PositionAt(t)
		out = append(out, Sample{T: t, Pos: pos})
	}
	return out
}
