// The benchmark is a module of its own so that it builds from its own
// directory and adds nothing to the repository's build. Its path sits under
// dkindex/, which is what lets it import dkindex/internal/... packages.
module dkindex/benchmark

go 1.22

require dkindex v0.0.0

replace dkindex => ../
