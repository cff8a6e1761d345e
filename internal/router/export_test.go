package router

// Flits expands a packet into its flit sequence.
func Flits(p *Packet) []Flit {
	fs := make([]Flit, p.Size)
	for i := range fs {
		fs[i] = Flit{P: p, Seq: int32(i)}
	}
	return fs
}

// generalPathOnly keeps r off the one-VC path: it steps through the general
// compute phases whatever its occupancy.
func (r *Router) generalPathOnly() { r.generalOnly = true }
