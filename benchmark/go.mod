module ensemble/benchmark

go 1.22

require ensemble v0.0.0

replace ensemble => ../
