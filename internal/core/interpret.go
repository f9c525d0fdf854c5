package core

// This file implements CTFL's interpretability layer (Section IV-B):
// per-participant beneficial and harmful characteristics expressed as their
// most frequently activated rules, and data-collection guidance from
// misclassified test cases that lack training coverage.

import (
	"fmt"
	"sort"
	"strings"
)

// RuleFrequency pairs a rule with its accumulated (weight-regularized)
// activation credit.
type RuleFrequency struct {
	RuleIndex int
	Expr      string
	Positive  bool // rule supports the positive class
	Weight    float64
	Credit    float64
}

// ParticipantProfile summarizes one participant's role in the federation.
type ParticipantProfile struct {
	Participant int
	// Beneficial lists the rules through which the participant most often
	// earned credit on correctly classified test data.
	Beneficial []RuleFrequency
	// Harmful lists the rules through which the participant most often
	// contributed to misclassifications.
	Harmful []RuleFrequency
	// UselessRatio is the fraction of the participant's training data never
	// matched by any test instance.
	UselessRatio float64
}

// topRules converts a frequency accumulator into a sorted, truncated list.
// Credits are normalized by the test-set size so they are comparable across
// runs.
func (r *Result) topRules(freq ruleFreq, k int) []RuleFrequency {
	norm := 1.0
	if r.TestSize > 0 {
		norm = 1 / float64(r.TestSize)
	}
	var out []RuleFrequency
	for ri, seen := range freq.seen {
		if !seen {
			continue
		}
		rf := RuleFrequency{RuleIndex: ri, Credit: freq.credit[ri] * norm}
		if rule, ok := r.tracer.rs.RuleByIndex(ri); ok {
			rf.Expr = rule.Expr
			rf.Positive = rule.Positive
			rf.Weight = rule.Weight
		}
		out = append(out, rf)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Credit != out[b].Credit {
			return out[a].Credit > out[b].Credit
		}
		return out[a].RuleIndex < out[b].RuleIndex
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Profile returns participant i's interpretability profile with at most k
// rules per list (k <= 0 means all).
func (r *Result) Profile(i, k int) ParticipantProfile {
	r.interp()
	return ParticipantProfile{
		Participant:  i,
		Beneficial:   r.topRules(r.beneficialFreq[i], k),
		Harmful:      r.topRules(r.harmfulFreq[i], k),
		UselessRatio: r.UselessRatio()[i],
	}
}

// Profiles returns every participant's profile with at most k rules each.
func (r *Result) Profiles(k int) []ParticipantProfile {
	r.interp()
	useless := r.UselessRatio()
	out := make([]ParticipantProfile, r.NumParticipants)
	for i := range out {
		out[i] = ParticipantProfile{
			Participant:  i,
			Beneficial:   r.topRules(r.beneficialFreq[i], k),
			Harmful:      r.topRules(r.harmfulFreq[i], k),
			UselessRatio: useless[i],
		}
	}
	return out
}

// CollectionGuidance returns the rules most frequently activated by
// misclassified, under-covered test instances: the patterns for which the
// federation should solicit new training data (Section IV-B, "Guide Data
// Collection"). At most k entries are returned (k <= 0 means all).
func (r *Result) CollectionGuidance(k int) []RuleFrequency {
	r.interp()
	return r.topRules(r.uncoveredRuleFreq, k)
}

// FormatProfile renders a profile with participant names for reports.
func FormatProfile(p ParticipantProfile, name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "participant %s (useless-data ratio %.2f)\n", name, p.UselessRatio)
	if len(p.Beneficial) > 0 {
		b.WriteString("  beneficial characteristics:\n")
		for _, rf := range p.Beneficial {
			fmt.Fprintf(&b, "    [%s credit=%.3f] %s\n", sideMark(rf.Positive), rf.Credit, rf.Expr)
		}
	}
	if len(p.Harmful) > 0 {
		b.WriteString("  harmful characteristics:\n")
		for _, rf := range p.Harmful {
			fmt.Fprintf(&b, "    [%s blame=%.3f] %s\n", sideMark(rf.Positive), rf.Credit, rf.Expr)
		}
	}
	return b.String()
}

func sideMark(positive bool) string {
	if positive {
		return "+"
	}
	return "-"
}
