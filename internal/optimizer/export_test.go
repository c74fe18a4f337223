package optimizer

// GrantFor exposes the grant planning assumes to the external tests.
func (o *Optimizer) GrantFor(memMax float64) float64 { return o.grantFor(memMax) }
