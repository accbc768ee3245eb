// Package good matches errors by identity and strings by text: the
// forms omnivet must leave unflagged.
package good

import (
	"errors"
	"strings"
)

var errBudget = errors.New("budget exhausted")

// OverBudget is the sanctioned way to recognise an error.
func OverBudget(err error, msg string) bool {
	return errors.Is(err, errBudget) || strings.Contains(msg, "budget")
}
