module autoadapt/benchmark

go 1.22

require autoadapt v0.0.0

replace autoadapt => ../
