// Package bad collects one instance of every violation omnivet
// reports, plus nearby legal forms that must stay unflagged.
package bad

import (
	"errors"
	"strings"
)

var errBudget = errors.New("budget exhausted")

// MatchByText has both error-text matching violations.
func MatchByText(err error) bool {
	if strings.Contains(err.Error(), "budget") { // want: string-matching
		return true
	}
	if err.Error() == "interrupted" { // want: string-matching
		return true
	}
	// Legal: identity comparison and matching on plain strings.
	if errors.Is(err, errBudget) {
		return true
	}
	return strings.Contains("haystack", "needle")
}
