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
	if cfg.Rate.IsZero() {
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
	t, m, strict, ok := s.next()
	if !ok {
		return Request{}, false
	}
	req := Request{ID: s.id, Model: m, Strict: strict, Arrival: t}
	s.id++
	return req, true
}

// Source returns the stream as a pull function: each call returns the
// next request, or nil once the stream ends. The request lives in one
// buffer that the following call overwrites, field by field, straight
// from the thinning loop: no Request is built and copied per arrival.
func (s *Stream) Source() func() *Request {
	cur := new(Request)
	return func() *Request {
		t, m, strict, ok := s.next()
		if !ok {
			return nil
		}
		cur.ID, cur.Model, cur.Strict, cur.Arrival = s.id, m, strict, t
		s.id++
		return cur
	}
}

// SliceSource returns reqs as a pull function: each call returns a
// pointer to the next request of the slice, or nil after the last. It
// only reads reqs.
func SliceSource(reqs []Request) func() *Request {
	i := 0
	return func() *Request {
		if i == len(reqs) {
			return nil
		}
		i++
		return &reqs[i-1]
	}
}

// next is the thinning loop Next and Generate share: it draws candidate
// arrivals until one is accepted and returns its instant, model and
// strictness, or ok=false once the horizon is reached.
func (s *Stream) next() (t float64, m *model.Model, strict, ok bool) {
	if s.done {
		return 0, nil, false, false
	}
	rate := s.cfg.Rate
	t = s.t
	for {
		// Thinning: candidate arrivals at the envelope rate.
		t += s.rng.ExpFloat64() / s.rateMax
		if t >= s.cfg.Duration {
			s.done = true
			return 0, nil, false, false
		}
		// Accept with probability rate(t)/rateMax. A draw at or below
		// the floor is accepted without evaluating the rate, which is
		// never below the floor and so would accept it too.
		if x := s.rng.Float64() * s.rateMax; !(x <= rate.floor) && x > rate.at(t) {
			continue
		}
		s.t = t
		strict = s.rng.Float64() < s.cfg.Mix.StrictFrac
		m = s.cfg.Mix.Strict
		if !strict {
			slot := int(t / s.rotate)
			if slot >= len(s.beSchedule) {
				slot = len(s.beSchedule) - 1
			}
			m = s.beSchedule[slot]
		}
		return t, m, strict, true
	}
}
