package main

// committedDigests are SHA-256 digests of known-good outputs, keyed by
// digestKey and computed as phaseDigest computes them. A phase whose key is
// listed must reproduce its digest byte for byte: the simulator is
// deterministic, so any difference is a change in what miraged serves.
//
// The tinybench sweep's digest is that of internal/server/testdata/
// sweep_tiny.json. Both warm keys cover serve-warm and fleet-warm, so the
// fleet serves the single-node bytes.
var committedDigests = map[string]string{
	"sweep/scale=bench":     "20039041d7c9b4a56a3f3a3264dad5b6e0ad27f0483aef4ea3f537c7e4e95eb2",
	"sweep/scale=tinybench": "b00e5ea062f0b1b2b6a1a69f5f4cdcd051314a97de84b969c9dc5f50d6e1a447",

	"run/seed=1/n=120/insts=60000": "a3943c2520a1fa8ad53ced36460b69a14afa24efed86253aff7634477e5e615f",
	"run/seed=1/n=3/insts=20000":   "96ae50c1511bc822cd5e0475407f1602cbf8f735720f8a5c3ae71392ad11ce39",

	"warm/seed=1/keys=64/insts=20000/interval=10000": "d172a89e0a2a4077e06acf6e1a1bc2eb8bd7ed4bee75c13c8981239f0ccb277c",
	"warm/seed=1/keys=4/insts=20000/interval=10000":  "d7e97800e4bb527032789e11061017da2aee3f77bd6e58808d3c71b76b0503c2",
}
