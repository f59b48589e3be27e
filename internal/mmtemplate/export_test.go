package mmtemplate

// WalkSharingFactor computes SharingFactor by walking every live
// template and summing its attaches: the brute-force reference the
// running sum is tested against.
func WalkSharingFactor(r *Registry) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.templates) == 0 {
		return 0
	}
	var sum int64
	for _, t := range r.templates {
		sum += t.Attaches()
	}
	return float64(sum) / float64(len(r.templates))
}
