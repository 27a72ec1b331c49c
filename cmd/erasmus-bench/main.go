// Command erasmus-bench regenerates every table and figure of the paper's
// evaluation and prints them in the paper's layout, annotated with the
// published values where the paper reports them.
//
// Usage:
//
//	erasmus-bench             # all experiments
//	erasmus-bench -exp table1 # one experiment: table1, fig6, synth, fig8,
//	                          # table2, fig1, detection, lenient, swarm,
//	                          # irregular, tamper
//
// The repository's performance benchmark is the bench/ module (see
// BENCHMARK.json), not this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"erasmus/internal/core"
	"erasmus/internal/costmodel"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/imx6"
	"erasmus/internal/hw/rtl"
	"erasmus/internal/qoa"
	"erasmus/internal/sim"
	"erasmus/internal/swarm"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, fig6, synth, fig8, table2, fig1, detection, lenient, swarm, irregular, tamper)")
	flag.Parse()

	experiments := map[string]func(){
		"table1":    table1,
		"fig6":      figure6,
		"synth":     synthesis,
		"fig8":      figure8,
		"table2":    table2,
		"fig1":      figure1,
		"detection": detection,
		"lenient":   lenient,
		"swarm":     swarmExp,
		"irregular": irregular,
		"tamper":    tamper,
	}
	order := []string{"table1", "fig6", "synth", "fig8", "table2", "fig1", "detection", "lenient", "swarm", "irregular", "tamper"}

	if *exp == "all" {
		for _, name := range order {
			experiments[name]()
			fmt.Println()
		}
		return
	}
	run, ok := experiments[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (have: all %s)\n", *exp, strings.Join(order, " "))
		os.Exit(2)
	}
	run()
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

// table1 prints Table 1: Size of Attestation Executable.
func table1() {
	header("Table 1: Size of Attestation Executable (KB)")
	fmt.Printf("%-14s | %-20s | %-20s\n", "", "SMART+", "HYDRA")
	fmt.Printf("%-14s | %-9s %-10s | %-9s %-10s\n", "MAC Impl.", "On-Demand", "ERASMUS", "On-Demand", "ERASMUS")
	fmt.Println(strings.Repeat("-", 62))
	for _, alg := range mac.Algorithms() {
		cells := make([]string, 0, 4)
		for _, arch := range []costmodel.Arch{costmodel.MSP430, costmodel.IMX6} {
			for _, d := range []costmodel.Design{costmodel.OnDemand, costmodel.Erasmus} {
				got := costmodel.ExecutableSizeKB(arch, alg, d)
				if paper, ok := costmodel.Reported(arch, alg, d); ok {
					cells = append(cells, fmt.Sprintf("%.2f(%.2f)", got, paper))
				} else {
					cells = append(cells, fmt.Sprintf("%.2f(-)", got))
				}
			}
		}
		fmt.Printf("%-14s | %-9s %-10s | %-9s %-10s\n", alg, cells[0], cells[1], cells[2], cells[3])
	}
	fmt.Println("model(paper); '-' = not reported in the paper")
}

// figure6 prints the Figure 6 series: measurement run-time vs memory size
// on the MSP430 @ 8 MHz.
func figure6() {
	header("Figure 6: Measurement Run-Time on MSP430 @ 8MHz (seconds)")
	fmt.Printf("%-10s", "Mem (KB)")
	for kb := 2; kb <= 10; kb += 2 {
		fmt.Printf("%8d", kb)
	}
	fmt.Println()
	for _, alg := range []mac.Algorithm{mac.HMACSHA256, mac.KeyedBLAKE2s} {
		for _, design := range []string{"On-demand", "ERASMUS"} {
			fmt.Printf("%-10s", design[:2]+"/"+shortAlg(alg))
			for kb := 2; kb <= 10; kb += 2 {
				t := costmodel.MeasurementTime(costmodel.MSP430, alg, kb*1024)
				if design == "On-demand" {
					t += costmodel.AuthTime(costmodel.MSP430)
				}
				fmt.Printf("%8.2f", t.Seconds())
			}
			fmt.Println()
		}
	}
	fmt.Println("paper anchor: ~7 s at 10 KB for HMAC-SHA256 (§5); linear in memory size")
}

// figure8 prints the Figure 8 series on the i.MX6 @ 1 GHz.
func figure8() {
	header("Figure 8: Measurement Run-Time on i.MX6 Sabre Lite @ 1GHz (seconds)")
	fmt.Printf("%-10s", "Mem (MB)")
	for mb := 2; mb <= 10; mb += 2 {
		fmt.Printf("%8d", mb)
	}
	fmt.Println()
	for _, alg := range []mac.Algorithm{mac.HMACSHA256, mac.KeyedBLAKE2s} {
		for _, design := range []string{"On-demand", "ERASMUS"} {
			fmt.Printf("%-10s", design[:2]+"/"+shortAlg(alg))
			for mb := 2; mb <= 10; mb += 2 {
				t := costmodel.MeasurementTime(costmodel.IMX6, alg, mb<<20)
				if design == "On-demand" {
					t += costmodel.AuthTime(costmodel.IMX6)
				}
				fmt.Printf("%8.3f", t.Seconds())
			}
			fmt.Println()
		}
	}
	fmt.Println("paper anchor: 285.6 ms at 10 MB for keyed BLAKE2s (Table 2)")
}

// synthesis prints the §4.1 FPGA utilization comparison.
func synthesis() {
	header("§4.1 Synthesis: OpenMSP430 core utilization (Xilinx ISE model)")
	c := rtl.Compare()
	fmt.Printf("%-28s %10s %10s\n", "", "Registers", "LUTs")
	fmt.Printf("%-28s %10d %10d\n", "Unmodified core", c.Baseline.Registers, c.Baseline.LUTs)
	fmt.Printf("%-28s %10d %10d\n", "ERASMUS/on-demand modified", c.Modified.Registers, c.Modified.LUTs)
	fmt.Printf("%-28s %9.1f%% %9.1f%%\n", "Overhead", c.RegisterOverhead()*100, c.LUTOverhead()*100)
	fmt.Println("paper: 655 vs 579 regs (~13%), 1969 vs 1731 LUTs (~14%); ERASMUS == on-demand")
	fmt.Println()
	fmt.Print(rtl.ErasmusModifications().Report())
}

// table2 prints Table 2: collection-phase run-time breakdown.
func table2() {
	header("Table 2: Run-Time (ms) of Collection Phase on I.MX6-Sabre Lite")
	e := sim.NewEngine()
	key := []byte("bench-device-key")
	dev, err := imx6.New(imx6.Config{
		Engine: e, MemorySize: 10 << 20,
		StoreSize: 16 * core.RecordSize(mac.KeyedBLAKE2s),
		Key:       key,
	})
	must(err)
	defer dev.Close()
	sched, err := core.NewRegular(sim.Minute)
	must(err)
	p, err := core.NewProver(dev, core.ProverConfig{Alg: mac.KeyedBLAKE2s, Schedule: sched, Slots: 16})
	must(err)
	p.MeasureNow()
	e.RunUntil(e.Now() + sim.Second)

	_, plain := p.HandleCollect(8)
	treq := dev.RROC() + 1
	_, _, od, err := p.HandleCollectOD(treq, 8, core.NewODRequestMAC(mac.KeyedBLAKE2s, key, treq, 8))
	must(err)

	rows := []struct {
		op           string
		plain, odVal sim.Ticks
		plainNA      bool
	}{
		{"Verify Request", 0, od.VerifyRequest, true},
		{"Compute Measurement", 0, od.ComputeMeasurement, true},
		{"Construct UDP Packet", plain.ConstructPacket, od.ConstructPacket, false},
		{"Send UDP Packet", plain.SendPacket, od.SendPacket, false},
	}
	fmt.Printf("%-26s %12s %14s\n", "Operations", "ERASMUS", "ERASMUS+OD")
	for _, r := range rows {
		left := fmt.Sprintf("%.3f", r.plain.Milliseconds())
		if r.plainNA {
			left = "N/A"
		}
		fmt.Printf("%-26s %12s %14.3f\n", r.op, left, r.odVal.Milliseconds())
	}
	fmt.Printf("%-26s %12.3f %14.1f\n", "Total Collection Run-time",
		plain.Total().Milliseconds(), od.Total().Milliseconds())
	fmt.Printf("paper: 0.015 vs 285.6; measurement/collection ratio here: %.0fx\n",
		float64(od.ComputeMeasurement)/float64(plain.Total()))
}

// figure1 prints the Fig. 1 QoA scenario.
func figure1() {
	header("Figure 1 scenario: mobile vs persistent malware (TM=1h, TC=4h)")
	res, err := qoa.RunScenario(qoa.ScenarioConfig{
		TM: sim.Hour, TC: 4 * sim.Hour, Duration: 24 * sim.Hour,
		Infections: []qoa.Infection{
			{Enter: 3*sim.Hour + 35*sim.Minute, Dwell: 20 * sim.Minute},
			{Enter: 9*sim.Hour + 30*sim.Minute},
		},
	})
	must(err)
	for i, o := range res.Outcomes {
		kind := "persistent"
		if o.Infection.Leaves() {
			kind = fmt.Sprintf("mobile (dwell %v)", o.Infection.Dwell)
		}
		status := "UNDETECTED"
		if o.Detected {
			status = fmt.Sprintf("DETECTED at %v (delay %v)", o.DetectedAt, o.DetectedAt-o.Infection.Enter)
		}
		fmt.Printf("infection %d: enters %v, %-22s -> %s\n", i+1, o.Infection.Enter, kind, status)
	}
	fmt.Printf("measurements: %d, collections: %d, mean freshness: %v (TM/2 = %v)\n",
		res.ProverStat.Measurements, len(res.Reports), res.MeanFreshness(), sim.Hour/2)
	fmt.Println("paper: infection 1 undetected, infection 2 detected after next collection")
}

// detection prints the headline detection comparison: on-demand polling
// every TC vs ERASMUS measuring every TM, over random-phase transient
// malware.
func detection() {
	header("Detection probability: on-demand (TC=4h) vs ERASMUS (TM=10m)")
	dwells := []sim.Ticks{sim.Minute, 5 * sim.Minute, 10 * sim.Minute,
		30 * sim.Minute, sim.Hour, 2 * sim.Hour, 4 * sim.Hour}
	pts, err := qoa.CompareDetection(10*sim.Minute, 4*sim.Hour, dwells, 50000, 3)
	must(err)
	fmt.Printf("%-12s %12s %12s %14s %14s\n", "dwell", "on-demand", "ERASMUS", "od analytic", "er analytic")
	for _, p := range pts {
		fmt.Printf("%-12v %11.1f%% %11.1f%% %13.1f%% %13.1f%%\n",
			p.Dwell, p.OnDemand*100, p.Erasmus*100, p.OnDemandAnalytic*100, p.ErasmusAnalytic*100)
	}
	fmt.Println("ERASMUS decouples detection power (TM) from contact frequency (TC): §1's motivation")
}

// lenient prints the §5 availability trade-off.
func lenient() {
	header("§5 Availability: 7s measurements vs a periodic critical task")
	fmt.Printf("%-11s %-9s %14s %13s %13s\n", "task", "policy", "deadline-miss", "measurements", "lost-windows")
	for _, task := range []struct {
		name   string
		period sim.Ticks
	}{{"dense-5s", 5 * sim.Second}, {"sparse-11s", 11 * sim.Second}} {
		for _, policy := range []qoa.AvailabilityPolicy{qoa.PolicyStrict, qoa.PolicyAbort, qoa.PolicyLenient} {
			res, err := qoa.RunAvailability(qoa.AvailabilityConfig{
				TM: 10 * sim.Minute, MemorySize: 10 * 1024,
				TaskPeriod: task.period, TaskDuration: sim.Second,
				Policy: policy, Window: 2.0, Duration: 2 * sim.Hour,
			})
			must(err)
			fmt.Printf("%-11s %-9s %13.2f%% %13d %13d\n",
				task.name, policy, res.MissRate()*100, res.Measurements, res.MissedWindows)
		}
	}
	fmt.Println("strict protects attestation but misses deadlines; lenient recovers windows when load allows")
}

// swarmExp prints the §6 mobility comparison.
func swarmExp() {
	header("§6 Swarm: completion rate under mobility (16 nodes, 10KB memory)")
	fmt.Printf("%-12s %12s %12s %18s\n", "speed (m/s)", "on-demand", "ERASMUS", "peak busy (stag.)")
	for _, speed := range []float64{0, 4, 8, 12, 16} {
		e := sim.NewEngine()
		s, err := swarm.New(swarm.Config{
			N: 16, Area: 150, Radius: 60, Speed: speed, Seed: 11,
			Engine: e, MemorySize: 10 * 1024,
		})
		must(err)
		e.RunUntil(25 * sim.Minute)
		var odC, odR, erC, erR int
		for trial := 0; trial < 6; trial++ {
			e.RunUntil(e.Now() + sim.Minute)
			r1 := s.RunOnDemand(0)
			odC, odR = odC+r1.Completed, odR+r1.Reached
			e.RunUntil(e.Now() + sim.Minute)
			r2 := s.RunErasmusCollection(0, 2)
			erC, erR = erC+r2.Completed, erR+r2.Reached
		}
		s.Stop()

		e2 := sim.NewEngine()
		s2, err := swarm.New(swarm.Config{
			N: 16, Area: 150, Radius: 60, Speed: speed, Seed: 11,
			Engine: e2, MemorySize: 10 * 1024, Stagger: true,
		})
		must(err)
		e2.RunUntil(25 * sim.Minute)
		peak := s2.MaxConcurrentMeasuring(0, 25*sim.Minute)
		s2.Stop()

		fmt.Printf("%-12g %11.1f%% %11.1f%% %18d\n",
			speed, pct(odC, odR), pct(erC, erR), peak)
	}
	fmt.Println("paper: on-demand swarm RA needs a static topology; ERASMUS relay survives mobility")
}

// irregular prints the §3.5 evasion comparison.
func irregular() {
	header("§3.5 Irregular intervals vs schedule-aware mobile malware")
	fmt.Printf("%-14s %-28s %10s\n", "dwell", "schedule", "evasion")
	for _, dwell := range []sim.Ticks{15 * sim.Minute, 25 * sim.Minute, 45 * sim.Minute} {
		reg, err := qoa.EvasionProbability(qoa.ScenarioConfig{
			TM: sim.Hour, TC: 4 * sim.Hour, Duration: sim.Hour,
		}, dwell, 20)
		must(err)
		irr, err := qoa.EvasionProbability(qoa.ScenarioConfig{
			IrregularL: 10 * sim.Minute, IrregularU: 70 * sim.Minute,
			TC: 4 * sim.Hour, Duration: sim.Hour,
		}, dwell, 20)
		must(err)
		fmt.Printf("%-14v %-28s %9.0f%%\n", dwell, "regular TM=1h", reg.Evasion*100)
		fmt.Printf("%-14v %-28s %9.0f%%\n", dwell, "irregular [10m,70m) CSPRNG_K", irr.Evasion*100)
	}
	fmt.Println("regular schedules are fully predictable; CSPRNG intervals catch longer dwells")
}

// tamper prints the §3.4 tamper-detection matrix plus the clock attack.
func tamper() {
	header("§3.4 Measurement-store tampering and the RROC requirement")
	for _, kind := range qoa.TamperKinds() {
		out, err := qoa.RunTamper(kind, 6)
		must(err)
		fmt.Printf("%-8s tampering: detected=%v (%d issue(s))\n", kind, out.Detected, len(out.Report.Issues))
	}
	secure, err := qoa.RunClockAttack(false)
	must(err)
	flawed, err := qoa.RunClockAttack(true)
	must(err)
	fmt.Printf("clock-reset attack, read-only RROC:  mounted=%v detected=%v\n", secure.AttackMounted, secure.Detected)
	fmt.Printf("clock-reset attack, writable clock:  mounted=%v detected=%v\n", flawed.AttackMounted, flawed.Detected)
	fmt.Println("paper: all tampering self-incriminating; RROC write-protection is what blocks the rewind")
}

func shortAlg(a mac.Algorithm) string {
	switch a {
	case mac.HMACSHA1:
		return "SHA1"
	case mac.HMACSHA256:
		return "SHA256"
	default:
		return "BLAKE2S"
	}
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "erasmus-bench:", err)
		os.Exit(1)
	}
}
