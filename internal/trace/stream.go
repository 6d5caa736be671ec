package trace

import (
	"errors"
	"fmt"
	"math/rand"

	"protean/internal/model"
)

// Stream is a pull-based arrival generator: it produces exactly the
// request sequence Generate would return for the same Config — same
// IDs, models, strictness and arrival instants, drawn from the
// identical RNG sequence — but one request at a time, so a multi-day
// million-user trace never has to be materialised. Consumers call Next
// until it reports false; a Stream may be abandoned at any point and a
// fresh Stream over the same Config replays the identical prefix.
//
// Memory is O(duration/rotate) for the pre-drawn best-effort rotation
// schedule (the same schedule Generate pre-draws so model choice does
// not perturb arrival sampling); everything else is O(1).
type Stream struct {
	cfg        Config
	rotate     float64
	rng        *rand.Rand
	beSchedule []*model.Model
	rateMax    float64

	t    float64
	id   uint64
	done bool
}

// NewStream validates cfg and builds the pull-based generator. The
// validation and every up-front RNG draw mirror Generate exactly:
// Generate(cfg) is equivalent to draining a fresh NewStream(cfg).
func NewStream(cfg Config) (*Stream, error) {
	if cfg.Rate == nil {
		return nil, errors.New("trace: nil rate function")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("trace: duration %v must be positive", cfg.Duration)
	}
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	rotate := cfg.Mix.RotatePeriod
	if rotate <= 0 {
		rotate = 20
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	// Pre-draw the BE rotation schedule so model choice does not perturb
	// arrival sampling.
	nSlots := int(cfg.Duration/rotate) + 1
	beSchedule := make([]*model.Model, nSlots)
	for i := range beSchedule {
		if len(cfg.Mix.BEPool) > 0 {
			beSchedule[i] = cfg.Mix.BEPool[rng.Intn(len(cfg.Mix.BEPool))]
		} else {
			beSchedule[i] = cfg.Mix.Strict
		}
	}

	rateMax := peakRate(cfg.Rate, cfg.Duration)
	if rateMax <= 0 {
		return nil, errors.New("trace: rate function is zero everywhere")
	}
	return &Stream{
		cfg:        cfg,
		rotate:     rotate,
		rng:        rng,
		beSchedule: beSchedule,
		rateMax:    rateMax,
	}, nil
}

// Next returns the next request of the arrival process, or ok=false
// once the trace horizon is reached. Arrivals are strictly ascending
// and IDs sequential from 0.
func (s *Stream) Next() (Request, bool) {
	if s.done {
		return Request{}, false
	}
	for {
		// Thinning: candidate arrivals at the envelope rate.
		s.t += s.rng.ExpFloat64() / s.rateMax
		if s.t >= s.cfg.Duration {
			s.done = true
			return Request{}, false
		}
		if s.rng.Float64()*s.rateMax > s.cfg.Rate(s.t) {
			continue
		}
		strict := s.rng.Float64() < s.cfg.Mix.StrictFrac
		m := s.cfg.Mix.Strict
		if !strict {
			slot := int(s.t / s.rotate)
			if slot >= len(s.beSchedule) {
				slot = len(s.beSchedule) - 1
			}
			m = s.beSchedule[slot]
		}
		req := Request{ID: s.id, Model: m, Strict: strict, Arrival: s.t}
		s.id++
		return req, true
	}
}
