package agreement

// Slot is one trial slot outside the pool, for tests that run trials back
// to back on the same slot.
type Slot struct{ t *trial }

// NewSlot returns a fresh slot.
func NewSlot() *Slot { return &Slot{newTrial()} }

// Run is RunRandomized on the slot.
func (s *Slot) Run(cfg RandomizedConfig, rule HonestRule, adv Adversary) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return s.t.run(cfg, rule, adv)
}

// Spares returns how many released rule instances the slot holds for its
// next trial.
func (s *Slot) Spares() (trial, nodes int) {
	if s.t.spareTrial != nil {
		trial = 1
	}
	return trial, len(s.t.spareNodes)
}
