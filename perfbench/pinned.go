package main

// pinned holds the SHA-256 digests of every artifact the workloads
// produce at seed 0, keyed scale/artifact: generated datasets in the
// columnar format, trees as their JSON serialization, and the
// cross-validation and importance results as JSON. A change to the
// simulator, the generator or induction that alters any output byte
// fails these checks; re-pin only for a deliberate change of results.
var pinned = map[string]string{
	"default/cpu2006.spcol":      "0c03bd694e01d54fa606ec8b8b82862d2a6e39da8c8525f35511eb72d0964b8a",
	"default/omp2001.spcol":      "a9683c540b18ff152c382d35516fbcd6bd1abde6f8cb17a72d2a7fed946338be",
	"default/cpu2006.tree.json":  "efc664af03fc6eced7c93ece0171aff201b09f4726404ee92ba432547d4d33ad",
	"default/omp2001.tree.json":  "3f64ccd9011c8817a23119cb627c9cdf00081c304b3a4823d0b93db0c7093a6e",
	"default/cpu2006.model.json": "3c98ebb1125529bfb79c8211b3066ce643bfe159a0adcef10f440fea5e6ffcf4",
	"default/omp2001.model.json": "ad8e0a838bafcbb9074c6883b2986cfaee147de78768a11ab3d82541138aafa9",

	"short/cpu2006.spcol":      "c27adea7d24154d7e9d635a5eb246c6abc1a5ce9562fe355b5ff197b65d49ef6",
	"short/omp2001.spcol":      "f68a901976703fa718c220572aacef996a4ae1c313d4208d50ca0d0aa7e3a0b2",
	"short/cpu2006.tree.json":  "1b7bde3abce65fb433bf112b0c2fe5a65d61c6318f40bba75b111da629f6c019",
	"short/omp2001.tree.json":  "e81955359607f20ed1260a8cd3acf5ee6d18e708e967da6a4f7875600a9acb15",
	"short/cpu2006.model.json": "b3ea5c60aa9e1c5360bc99f83ab6521aec3fa6ed4525a324d0bada614113df8b",
	"short/omp2001.model.json": "be63bc461daea6c2488c04a1ccea2689a888d6d28fa2bdd4a5c6ca47fb27ffc8",
	"short/cv.json":            "c63d871f6f733f699df23236fac23309139fa05d41451dc0ce9d7c11021eb693",
	"short/importance.json":    "c367c39717cd26c5d7488eb6673e52ea8f4dc9d3fd401b6609f4e88f56c2556d",

	"quick/cpu2006.spcol":      "0afa7142533754af2978da9b2d22bf5b416afb9a21b120a36c99c6f83b2644df",
	"quick/omp2001.spcol":      "99c81d72753d958e9d2e6af48e9df55cff8417b09546451b8326e371adea047b",
	"quick/cpu2006.tree.json":  "8b81c2181946ef53516d035e2d4d0a5ea4a7cc75a47c3fbafa87eda88a03d041",
	"quick/omp2001.tree.json":  "fb26a3677c9a5869bf34bc4f6849464ebaf3917010b1c2634ff3229d16f1af72",
	"quick/cpu2006.model.json": "e4b60af50cf69e80bf6ccbc2e1ea3d281cfae3e223e0dbbf89081d5603c54708",
	"quick/omp2001.model.json": "c0768a3b71a8d647fff7fee669973cf6dcdada095ca9ea4e83863beaaf7a2997",
}
