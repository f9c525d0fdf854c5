package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// speedProbe measures how fast the host runs a fixed CPU kernel during a
// pass. The shared host the benchmark is sized for changes speed by up to
// 2x within seconds, in CPU time as much as in wall time, so two runs of
// the same code a minute apart differ more than most code changes do. Each
// sample is the thread CPU time of one kernel run on one pinned CPU; waiting
// for a core the workload holds does not count, so the probe reads the
// host, not the workload. End-to-end timings are divided by how much slower
// than the reference the probe found the host while they were taken.
type speedProbe struct {
	once    sync.Once
	stop    chan struct{}
	done    chan struct{}
	samples [][]probeSample // per CPU, in time order
	prefix  [][]float64     // per CPU: running sums of sample ms, for slowdown
}

type probeSample struct {
	at time.Time
	ms float64 // thread CPU time of one kernel run
}

const (
	probeEvery = 20 * time.Millisecond
	probeWork  = 1 << 17 // multiply-adds per sample: about 0.1 ms, under 1% of a core
	// probeRefMs is the reference host's probe time: end-to-end timings are
	// reported as if the host ran the kernel in this long.
	probeRefMs = 0.125
)

// startProbe starts one sampler pinned to each CPU this process may use.
func startProbe() *speedProbe {
	cpus := allowedCPUs()
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{}), samples: make([][]probeSample, len(cpus))}
	var wg sync.WaitGroup
	for i, cpu := range cpus {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The pinned thread is never unlocked: it exits with the
			// goroutine instead of carrying its affinity to other work.
			runtime.LockOSThread()
			var mask [16]uint64
			mask[cpu/64] = 1 << (cpu % 64)
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
				return
			}
			t := time.NewTicker(probeEvery)
			defer t.Stop()
			var a [4096]float64
			for i := range a {
				a[i] = float64(i%7) * 0.5
			}
			for {
				select {
				case <-p.stop:
					return
				case <-t.C:
				}
				start := threadCPU()
				s := 0.0
				for r := 0; r < probeWork/len(a); r++ {
					for i := range a {
						s += a[i] * a[(i*7)&(len(a)-1)]
					}
				}
				a[0] += s * 1e-300 // keeps the loop's result live
				p.samples[i] = append(p.samples[i], probeSample{time.Now(), ms(threadCPU() - start)})
			}
		}()
	}
	go func() { wg.Wait(); close(p.done) }()
	return p
}

// stopAndWait stops the samplers; the samples are read only after it.
// Safe to call twice.
func (p *speedProbe) stopAndWait() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}

// slowdown is how much slower than the reference host this host ran during
// [from, to]: the mean over CPUs of each CPU's mean sample in the window,
// over probeRefMs. A CPU with no sample in the window contributes its
// sample nearest to it; without any sample the host counts as the
// reference.
func (p *speedProbe) slowdown(from, to time.Time) float64 {
	if p.prefix == nil {
		p.prefix = make([][]float64, len(p.samples))
		for i, cpu := range p.samples {
			p.prefix[i] = make([]float64, len(cpu)+1)
			for j, s := range cpu {
				p.prefix[i][j+1] = p.prefix[i][j] + s.ms
			}
		}
	}
	sum, n := 0.0, 0
	for i, cpu := range p.samples {
		if len(cpu) == 0 {
			continue
		}
		lo := sort.Search(len(cpu), func(j int) bool { return !cpu[j].at.Before(from) })
		hi := sort.Search(len(cpu), func(j int) bool { return cpu[j].at.After(to) })
		switch {
		case hi > lo:
			sum += (p.prefix[i][hi] - p.prefix[i][lo]) / float64(hi-lo)
		case lo == len(cpu) || lo > 0 && from.Sub(cpu[lo-1].at) <= cpu[lo].at.Sub(to):
			sum += cpu[lo-1].ms
		default:
			sum += cpu[lo].ms
		}
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / probeRefMs
}

// allowedCPUs lists the CPUs in this process's affinity mask.
func allowedCPUs() []int {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return nil
	}
	var cpus []int
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
