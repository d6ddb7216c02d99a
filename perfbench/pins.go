package main

// defaultSeed is the seed a run uses without --seed; heldOutSeed is a
// second pinned seed no tuning used.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// pin is the output a workload must reproduce for one seed at full
// size, in the terms of childResult: digest, events and kernel digest.
// (The fat-tree trace holds only the install event, so its digest is
// seed-independent; the event count and kernel digest are not.)
type pin struct {
	digest       string
	events       uint64
	kernelDigest string
}

var pins = map[string]map[int64]pin{
	"fattree-crosspod": {
		defaultSeed: {"4d77981513660da772eb3c00612514d7effce37a01814f95107ad8af87428b6f", 8623,
			"5b933ba752178356e8128a1ea5269614b50999d6d88c3a1f21e1b8f64f3b7c52"},
		heldOutSeed: {"4d77981513660da772eb3c00612514d7effce37a01814f95107ad8af87428b6f", 8908,
			"f54fef0ad5c8f798190c3eb8a939578d82af612a9c9f0da72a6d9c3c669d8e92"},
	},
	"multiroot-churn": {
		defaultSeed: {"363d672c96eec3cefa0e313ceef6c8c9a64c4407aef2bc66ce74e37660be9b31", 503482,
			"49770105c39896057463b5dce523156039da8869d518c2bf681aabd83a61b1cd"},
		heldOutSeed: {"0992c22052127fe8c5e1a03fde3f5dffc04e01f1b4550b952469d544c1dfd02f", 498812,
			"d511fba9c20c074f45cece24b29c5285b3cc3e22275fe2ba51056058a0f872dc"},
	},
	"session-forks": {
		defaultSeed: {"4460239809b53e45ba573e1e7d95f980e13b02ac428b49fea086eec8a4ab0da1", 4,
			"33110d03803634b688b5d0c99990034ca18232749bd18b884b22dbeab2cf71b9"},
		heldOutSeed: {"0c12c0047b997f1f02489f85ef9cfcb9cea2099629e62126f7403048bdf6389d", 4,
			"553813d5234cce9feddb9969048fc88da401a759ef0aad53b4c144d0bdab4f8d"},
	},
}
