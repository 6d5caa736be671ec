package sim

// Active reports whether the timer is still pending (not fired, not
// cancelled).
func (t *Timer) Active() bool { return t != nil && t.sim != nil && t.index >= 0 }
