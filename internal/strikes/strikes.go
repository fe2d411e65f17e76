// Package strikes is the one consecutive-failure rule: the trader's offer
// quarantine, the monitor's aspect, predicate and observer quarantines and
// the smart proxy's strategy quarantine all put a thing out after Limit
// failures in a row, and a success in between clears its record.
package strikes

// Limit is how many consecutive failures put a thing out.
const Limit = 3

// Count is one thing's run of consecutive failures, saturating at Limit.
// The zero value is a clean record. A Count is not safe for concurrent
// use; its owner's lock guards it.
type Count uint8

// Fail counts one failure and reports whether it is the one that reached
// Limit: true exactly once per run, however long the run goes on.
func (c *Count) Fail() bool {
	if *c >= Limit {
		return false
	}
	*c++
	return *c == Limit
}

// Out reports whether the run has reached Limit.
func (c Count) Out() bool { return c >= Limit }

// Reset clears the record after a success.
func (c *Count) Reset() { *c = 0 }
