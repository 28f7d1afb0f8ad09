module clusterworx/bench

go 1.22

require clusterworx v0.0.0

replace clusterworx => ../
