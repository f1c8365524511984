package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed normalization.
//
// The benchmark's host is a shared VM whose vCPUs each switch, every fraction
// of a second to a few seconds and independently of one another, between
// speed levels about 1.5x apart: the same row pass took 0.17–0.32 s within
// one run, and a fixed arithmetic kernel slowed in step with it. Medians over
// a whole run then still move by the share of the run spent at each level,
// more than any bound a comparison could use.
//
// So the simulation times the end-to-end metrics report are scaled to a
// reference speed: the interval is timed as usual, the calibration kernel
// below times the host's speed around or during it, and the interval is
// multiplied by the kernel's reference time over its measured time. A change
// to the simulator moves the interval and not the kernel, so it moves the
// normalized time as much as the wall time; a change of the host's speed
// moves both and largely cancels. The raw wall-clock times are printed as
// notes.
//
// A row runs on one goroutine, so the kernel runs on that goroutine right
// before and right after it (gauge). A figure render keeps a simulation in
// flight on every vCPU for seconds, so during the render a sampler runs a
// short kernel every few milliseconds on each vCPU, and the render is scaled
// by the mean of those samples.

// refKernel is the calibration kernel's time at the reference speed: about
// its time on the faster level of a 2-vCPU Intel Xeon VM at 2.1 GHz.
const refKernel = 4 * time.Millisecond

const (
	kernelIters = 2_000_000
	kernelWords = 1 << 16 // 512 KB: stays in the L2 on the reference host

	// The sampler's kernel is an eighth of the gauge's, every samplePeriod:
	// about 2% of each vCPU.
	sampleIters  = kernelIters / 8
	samplePeriod = 25 * time.Millisecond
)

// kernel runs iters steps of the fixed calibration work on table and returns
// its result: a linear congruential generator whose high bits index
// read-modify-writes into a table resident in the private caches, a mix of
// dependent arithmetic and loads like the simulator's inner loops.
func kernel(table []uint64, iters int) uint64 {
	x := uint64(1)
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		table[(x>>40)&(kernelWords-1)] += x
	}
	return x
}

// The gauge and each vCPU's sampler have a kernel table, mapped outside the
// Go heap so that it neither shows in the heap metrics nor costs the
// collector anything.
var (
	gaugeTable    []uint64
	samplerCPUs   []int // the vCPUs the process may run on
	samplerTables [][]uint64
	kernelSink    uint64 // keeps the kernel's result live
)

// mapKernelTables finds the vCPUs the process may run on, maps the kernel
// tables and faults their pages in. It runs once, before anything is timed.
func mapKernelTables() error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	samplerCPUs = cpus
	tables := make([][]uint64, 1+len(cpus))
	for i := range tables {
		mem, err := syscall.Mmap(-1, 0, kernelWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return fmt.Errorf("mapping the calibration kernel's table: %w", err)
		}
		tables[i] = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), kernelWords)
		kernelSink += kernel(tables[i], kernelIters)
	}
	gaugeTable, samplerTables = tables[0], tables[1:]
	return nil
}

// gauge runs the kernel once on the calling goroutine and returns its wall
// time in seconds.
func gauge() float64 {
	t0 := time.Now()
	kernelSink += kernel(gaugeTable, kernelIters)
	return time.Since(t0).Seconds()
}

// atRef scales a wall time t to the reference speed, given the kernel times
// measured right before and right after it.
func atRef(t, before, after float64) float64 {
	return t * refKernel.Seconds() * 2 / (before + after)
}

// sampler times the short kernel every samplePeriod on every vCPU until
// stopped, each on a thread pinned to its vCPU: a single unpinned sampler
// thread tends to wake on the vCPU it last ran on, and the other one's speed
// then goes unmeasured. Each sample is the thread CPU time the kernel took,
// so time waiting for the vCPU does not count, while a slow vCPU does.
type sampler struct {
	stop chan struct{}
	sets chan sampleSet // one send per vCPU
}

type sampleSet struct {
	xs   []float64
	sink uint64
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), sets: make(chan sampleSet, len(samplerCPUs))}
	for i, cpu := range samplerCPUs {
		go s.sample(cpu, samplerTables[i])
	}
	return s
}

func (s *sampler) sample(cpu int, table []uint64) {
	// The thread stays locked until the goroutine exits, so the runtime ends
	// the thread instead of reusing it pinned. Both clock reads of a sample
	// are then on the same thread, too.
	runtime.LockOSThread()
	if err := pinThread(cpu); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: sampler runs unpinned:", err)
	}
	var set sampleSet
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			s.sets <- set
			return
		case <-tick.C:
			t0 := threadCPU()
			set.sink += kernel(table, sampleIters)
			set.xs = append(set.xs, threadCPU()-t0)
		}
	}
}

// atRef stops the sampler, waits for every vCPU's samples, and scales the
// wall time t of the interval it sampled to the reference speed.
func (s *sampler) atRef(t float64) float64 {
	close(s.stop)
	sum, n := 0.0, 0
	for range samplerCPUs {
		set := <-s.sets
		kernelSink += set.sink
		for _, x := range set.xs {
			sum += x
		}
		n += len(set.xs)
	}
	if n == 0 {
		return t
	}
	mean := sum / float64(n) * kernelIters / sampleIters
	return t * refKernel.Seconds() / mean
}

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [1024 / 64]uint64

// allowedCPUs returns the CPUs the calling thread may run on, which at
// start-up are the process's.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinThread restricts the calling thread to cpu.
func pinThread(cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", cpu, errno)
	}
	return nil
}

// threadCPU returns the calling thread's CPU time in seconds.
func threadCPU() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno)) // Linux always has this clock
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}
