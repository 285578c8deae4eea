// Area-neutral design study (Figure 14): given roughly the same silicon,
// is it better to spend it on more out-of-order cores (the Kumar-style 5:3
// Het-CMP) or on one schedule-producing OoO feeding eight memoizing InO
// cores? This example runs both on the same eight applications.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/stats"
)

func main() {
	mix := core.RandomMixes(core.MixRandom, 8, 1, "areaneutral-example")[0]
	fmt.Println("mix:", mix)
	fmt.Println()

	base := core.Config{Seed: "areaneutral-example"}

	// Mirage 8:1 under the SC-MPKI arbitrator.
	cmp, err := core.Compare(context.Background(), mix, base, []core.Arm{{core.PolicySCMPKI, core.TopologyMirage}})
	if err != nil {
		log.Fatal(err)
	}
	mirage := cmp.ByPolicy[core.PolicySCMPKI]

	// Traditional 5:3 under maxSTP: 8 applications, 3 OoO cores, 5 InO.
	tCfg := base
	tCfg.Topology = core.TopologyTraditional
	tCfg.Policy = core.PolicyMaxSTP
	tCfg.Benchmarks = mix
	tCfg.NumOoO = 3
	trad, err := core.RunMix(context.Background(), tCfg)
	if err != nil {
		log.Fatal(err)
	}
	trad.STP = stats.STP(trad.PerAppIPC, cmp.RefIPC)

	var tbl stats.Table
	tbl.Title = "Area-neutral comparison (relative to an 8-OoO CMP)"
	tbl.Headers = []string{"metric", "8:1 Mirage / SC-MPKI", "5:3 traditional / maxSTP"}
	eRef := cmp.HomoOoO.EnergyPJ
	aRef := core.Area(core.TopologyHomoOoO, 8)
	tbl.AddRow("performance", stats.Pct(mirage.STP), stats.Pct(trad.STP))
	tbl.AddRow("energy", stats.Pct(mirage.EnergyPJ/eRef), stats.Pct(trad.EnergyPJ/eRef))
	tbl.AddRow("area", stats.Pct(mirage.AreaMM2/aRef), stats.Pct(trad.AreaMM2/aRef))
	tbl.AddRow("OoO active", stats.Pct(mirage.OoOActiveFrac), stats.Pct(trad.OoOActiveFrac))
	fmt.Println(tbl.String())
	fmt.Println("The paper's finding: one OoO used as a schedule producer beats two")
	fmt.Println("extra OoO cores on both performance and energy at similar area.")
}
