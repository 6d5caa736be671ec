package experiments

import (
	"fmt"

	"protean/internal/sim"
	"protean/internal/vm"
)

// Table3SpotPricing reproduces Table 3 (static pricing) and adds a
// metered one-hour fleet demonstration of the attainable savings.
func Table3SpotPricing(p Params) (*Report, error) {
	p = p.withDefaults()
	static := &Table{
		Title:   "Table 3: on-demand and spot hourly pricing (8xA100 instance)",
		Headers: []string{"IaaS provider", "on-demand $/h", "spot $/h", "cost savings"},
	}
	for _, pr := range vm.Providers() {
		static.Rows = append(static.Rows, []string{
			pr.Provider,
			fmt.Sprintf("%.4f", pr.OnDemandHourly),
			fmt.Sprintf("%.4f", pr.SpotHourly),
			pct(pr.Savings()),
		})
	}

	metered := &Table{
		Title:   "Table 3 (metered): one-hour 8-node spot-preferred fleet per provider",
		Headers: []string{"IaaS provider", "metered cost", "on-demand baseline", "normalized"},
	}
	for _, pr := range vm.Providers() {
		s := sim.New(p.Seed)
		if tr := p.tracer("table3 " + pr.Provider); tr != nil {
			s.SetTracer(tr)
		}
		fleet, err := vm.NewFleet(s, vm.Config{
			Nodes:        p.Nodes,
			Mode:         vm.ModeSpotPreferred,
			Pricing:      pr,
			Availability: vm.AvailabilityHigh,
		})
		if err != nil {
			return nil, err
		}
		if err := fleet.Start(); err != nil {
			return nil, err
		}
		if err := s.RunUntil(3600); err != nil {
			return nil, err
		}
		report := fleet.Cost(0)
		metered.Rows = append(metered.Rows, []string{
			pr.Provider,
			fmt.Sprintf("$%.2f", report.Dollars),
			fmt.Sprintf("$%.2f", report.OnDemandBaseline),
			fmt.Sprintf("%.3f", report.Normalized),
		})
	}
	return &Report{ID: "table3", Tables: []*Table{static, metered}}, nil
}
