module gcao/benchmark

go 1.22

require gcao v0.0.0

replace gcao => ../
