package mcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"omniware/internal/audit"
	"omniware/internal/mcache/diskstore"
	"omniware/internal/ovm"
)

// Audit returns the static-analysis report for mod, whose content hash
// the caller already holds, running the pipeline on first sight and
// memoizing by that hash. The report is derived, never loaded: when the
// persistent tier holds a stored audit for the hash, the stored blob is
// compared against the fresh derivation — a mismatch quarantines the
// stored copy (it is evidence of tampering or an analyzer change,
// either way not servable) and the derived report wins. This is the
// same verified-on-arrival discipline translations get: disk and peers
// supply hints and receipts, but every verdict served from this node
// was computed by this node.
func (c *Cache) Audit(mod *ovm.Module, hash string) (*audit.Report, error) {
	c.auditMu.Lock()
	if rep, ok := c.audits[hash]; ok {
		c.auditMu.Unlock()
		c.ctr.auditHits.Add(1)
		return rep, nil
	}
	c.auditMu.Unlock()

	rep, err := audit.Analyze(mod)
	if err != nil {
		return nil, fmt.Errorf("mcache: audit %s: %w", hash, err)
	}
	c.ctr.audits.Add(1)
	if rep.Hash != hash {
		// The caller's hash disagrees with the module bytes; refuse
		// rather than memoize under a name other modules may claim.
		return nil, fmt.Errorf("mcache: audit hash mismatch: module is %s, caller said %s", rep.Hash, hash)
	}
	c.reconcileStoredAudit(hash, rep)

	c.auditMu.Lock()
	defer c.auditMu.Unlock()
	if prior, ok := c.audits[hash]; ok {
		// Another deriver won the race; both derivations are equal by
		// determinism, keep the memoized one.
		return prior, nil
	}
	c.audits[hash] = rep
	c.auditOrder = append(c.auditOrder, hash)
	for len(c.auditOrder) > AuditMemoCap {
		delete(c.audits, c.auditOrder[0])
		c.auditOrder = c.auditOrder[1:]
	}
	return rep, nil
}

// AuditByHash returns the memoized report for a module hash, if this
// node has derived one (it does not touch disk: a report this node
// never derived is a report this node cannot vouch for).
func (c *Cache) AuditByHash(hash string) (*audit.Report, bool) {
	c.auditMu.Lock()
	rep, ok := c.audits[hash]
	c.auditMu.Unlock()
	return rep, ok
}

// reconcileStoredAudit compares the fresh derivation against the
// persistent tier: confirm on a match, write through on absence, and
// quarantine-then-rewrite when the stored copy disagrees or cannot be
// read (a corrupt envelope gets the same treatment as a mismatch).
func (c *Cache) reconcileStoredAudit(hash string, rep *audit.Report) {
	if c.disk == nil {
		return
	}
	fresh, err := json.Marshal(rep)
	if err != nil {
		return
	}
	stored, err := c.disk.GetAudit(hash)
	if err == nil && bytes.Equal(stored, fresh) {
		return
	}
	if !errors.Is(err, diskstore.ErrNotFound) {
		c.ctr.auditQuarantines.Add(1)
		if err == nil {
			c.logf("mcache: stored audit for %s disagrees with re-derivation; quarantined", hash)
		} else {
			c.logf("mcache: stored audit for %s unreadable: %v; quarantined", hash, err)
		}
		if qerr := c.disk.QuarantineAudit(hash); qerr != nil {
			c.logf("mcache: %v", qerr)
		}
	}
	if perr := c.disk.PutAudit(hash, fresh); perr != nil {
		c.logf("mcache: writing audit for %s: %v", hash, perr)
		return
	}
	c.ctr.auditDiskWrites.Add(1)
}
