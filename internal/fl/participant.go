// Package fl simulates horizontal federated learning: participants holding
// private shards of a common-schema dataset, the Dirichlet-skew partitioners
// of the paper's experimental setup (Section VI-A), the three adversarial
// behaviours the robustness study injects (data replication, low-quality
// labels, label flipping), and a FedAvg trainer over the logical neural
// networks of package nn.
package fl

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Participant is one federated client with a private local dataset.
type Participant struct {
	ID   int
	Name string
	Data *dataset.Table
}

// Size returns the number of local training instances.
func (p *Participant) Size() int { return p.Data.Len() }

// LabelDistribution returns the participant's empirical label distribution
// as [P(y=0), P(y=1)].
func (p *Participant) LabelDistribution() [2]float64 {
	var c [2]float64
	for _, in := range p.Data.Instances {
		c[in.Label]++
	}
	n := float64(p.Data.Len())
	if n > 0 {
		c[0] /= n
		c[1] /= n
	}
	return c
}

// participantName produces the A, B, C, ... naming the paper's case studies use.
func participantName(i int) string {
	if i < 26 {
		return string(rune('A' + i))
	}
	return fmt.Sprintf("P%d", i)
}

// PartitionSkewSample splits the table across n participants with sizes
// drawn from a symmetric Dirichlet(alpha): the paper's "skew sample" case,
// where everyone shares the data distribution but holds different amounts.
// Every participant receives at least one instance.
func PartitionSkewSample(t *dataset.Table, n int, alpha float64, r *rand.Rand) []*Participant {
	if n < 1 {
		panic("fl: need at least one participant")
	}
	if t.Len() < n {
		panic(fmt.Sprintf("fl: cannot split %d instances across %d participants", t.Len(), n))
	}
	ratios := stats.Dirichlet(r, n, alpha)
	idx := r.Perm(t.Len())
	counts := apportion(ratios, t.Len(), 1)
	parts := make([]*Participant, n)
	at := 0
	for i := 0; i < n; i++ {
		parts[i] = &Participant{
			ID:   i,
			Name: participantName(i),
			Data: t.Subset(idx[at : at+counts[i]]),
		}
		at += counts[i]
	}
	return parts
}

// PartitionSkewLabel splits the table across n participants, drawing a
// separate Dirichlet(alpha) ratio vector for each class label: the paper's
// "skew label" case, where participants differ in label distribution as well
// as size. Every participant receives at least one instance overall.
func PartitionSkewLabel(t *dataset.Table, n int, alpha float64, r *rand.Rand) []*Participant {
	if n < 1 {
		panic("fl: need at least one participant")
	}
	byLabel := [2][]int{}
	for i, in := range t.Instances {
		byLabel[in.Label] = append(byLabel[in.Label], i)
	}
	assigned := make([][]int, n)
	for label := 0; label < 2; label++ {
		pool := byLabel[label]
		if len(pool) == 0 {
			continue
		}
		stats.Shuffle(r, pool)
		ratios := stats.Dirichlet(r, n, alpha)
		counts := apportion(ratios, len(pool), 0)
		at := 0
		for i := 0; i < n; i++ {
			assigned[i] = append(assigned[i], pool[at:at+counts[i]]...)
			at += counts[i]
		}
	}
	// Guarantee non-empty shards by stealing from the largest.
	for i := range assigned {
		if len(assigned[i]) > 0 {
			continue
		}
		largest := 0
		for j := range assigned {
			if len(assigned[j]) > len(assigned[largest]) {
				largest = j
			}
		}
		if len(assigned[largest]) < 2 {
			panic("fl: not enough data to give every participant an instance")
		}
		last := len(assigned[largest]) - 1
		assigned[i] = append(assigned[i], assigned[largest][last])
		assigned[largest] = assigned[largest][:last]
	}
	parts := make([]*Participant, n)
	for i := 0; i < n; i++ {
		parts[i] = &Participant{ID: i, Name: participantName(i), Data: t.Subset(assigned[i])}
	}
	return parts
}

// apportion converts fractional ratios into integer counts summing to total,
// giving every slot at least minEach (when feasible).
func apportion(ratios []float64, total, minEach int) []int {
	n := len(ratios)
	counts := make([]int, n)
	used := 0
	for i, f := range ratios {
		counts[i] = int(f * float64(total))
		used += counts[i]
	}
	// Distribute the remainder to the largest fractional parts (simple round
	// robin is fine given the downstream use).
	for i := 0; used < total; i = (i + 1) % n {
		counts[i]++
		used++
	}
	if minEach > 0 {
		for i := range counts {
			for counts[i] < minEach {
				// steal from the current maximum
				maxJ := 0
				for j := range counts {
					if counts[j] > counts[maxJ] {
						maxJ = j
					}
				}
				if counts[maxJ] <= minEach {
					panic("fl: cannot satisfy minimum shard size")
				}
				counts[maxJ]--
				counts[i]++
			}
		}
	}
	return counts
}
