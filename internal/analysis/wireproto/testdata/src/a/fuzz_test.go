package a

// dispatchSeeds seed "get" and "put" but not "del".
var dispatchSeeds = []string{
	"get a\nget b\n",
	"put k v\n",
}
