module contractshard/benchmark

go 1.22

require contractshard v0.0.0

replace contractshard => ../
