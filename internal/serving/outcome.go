package serving

import "errors"

// Outcome is the one bucket a submitted request ends in. Every load report
// counts requests by it, and the serving.request span carries its name as
// the outcome label, so reports and traces share one taxonomy.
type Outcome int

// The outcomes, in report order.
const (
	OutcomeOK       Outcome = iota // served
	OutcomeLate                    // served after a replay's deadline (never returned by Classify)
	OutcomeShed                    // ErrOverloaded: the tenant's backlog was full
	OutcomeExpired                 // ErrExpired: the deadline passed first
	OutcomeFaulted                 // ErrFaulted: injected faults outlasted the retries
	OutcomeStopped                 // ErrStopped: the gateway shut down first
	OutcomeRejected                // ErrQuotaExceeded: the tenant was over its quota
	OutcomeOther                   // any other error
)

var outcomeNames = [...]string{"ok", "late", "shed", "expired", "faulted", "stopped", "rejected", "other"}

// String names the outcome as span labels and reports print it.
func (o Outcome) String() string { return outcomeNames[o] }

// Classify maps a submission or response error to its outcome. It
// unwraps with errors.Is, so an error that wraps one of the package's
// sentinels (a router's, say) lands in the same bucket as the sentinel.
func Classify(err error) Outcome {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, ErrOverloaded):
		return OutcomeShed
	case errors.Is(err, ErrExpired):
		return OutcomeExpired
	case errors.Is(err, ErrFaulted):
		return OutcomeFaulted
	case errors.Is(err, ErrStopped):
		return OutcomeStopped
	case errors.Is(err, ErrQuotaExceeded):
		return OutcomeRejected
	default:
		return OutcomeOther
	}
}
