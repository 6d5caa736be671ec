package autoscale

// Live returns the total number of live containers on the node.
func (s *Scaler) Live() int {
	s.Sweep()
	return s.spawned
}
