module omniware/benchmark

go 1.22

require omniware v0.0.0

replace omniware => ../
