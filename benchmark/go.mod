module streamelastic/benchmark

go 1.22

require streamelastic v0.0.0

replace streamelastic => ../
