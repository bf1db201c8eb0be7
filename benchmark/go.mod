module dnnfusion/benchmark

go 1.24

require dnnfusion v0.0.0

replace dnnfusion => ../
