package geo

// Country describes one country in the synthetic world: where its prefixes
// cluster, how many Internet users it has (millions, roughly calibrated to
// 2021 figures), and its continental region. The catalog intentionally
// includes every country the paper's Figure 3 discussion names (the South
// American coverage gaps) plus enough of the rest of the world for global
// coverage experiments.
type Country struct {
	Code     string
	Name     string
	Center   Coord
	SpreadKm float64 // radius within which its networks scatter
	UsersM   float64 // Internet users, millions
	Region   string
}

// Regions used by the catalog and the PoP table.
const (
	RegionNorthAmerica = "north-america"
	RegionSouthAmerica = "south-america"
	RegionEurope       = "europe"
	RegionAsia         = "asia"
	RegionAfrica       = "africa"
	RegionOceania      = "oceania"
)

// Countries is the world catalog, ordered by Internet users descending so
// that deterministic iteration allocates the biggest populations first.
var Countries = []Country{
	{"CN", "China", Coord{34.0, 108.0}, 1400, 1000, RegionAsia},
	{"IN", "India", Coord{21.0, 78.0}, 1200, 750, RegionAsia},
	{"US", "United States", Coord{39.0, -96.0}, 1800, 300, RegionNorthAmerica},
	{"ID", "Indonesia", Coord{-2.0, 113.0}, 1400, 200, RegionAsia},
	{"BR", "Brazil", Coord{-12.0, -52.0}, 1500, 165, RegionSouthAmerica},
	{"NG", "Nigeria", Coord{9.0, 8.0}, 600, 110, RegionAfrica},
	{"JP", "Japan", Coord{36.0, 138.0}, 600, 105, RegionAsia},
	{"RU", "Russia", Coord{56.0, 50.0}, 2200, 120, RegionEurope},
	{"MX", "Mexico", Coord{23.0, -102.0}, 900, 95, RegionNorthAmerica},
	{"DE", "Germany", Coord{51.0, 10.0}, 350, 78, RegionEurope},
	{"PH", "Philippines", Coord{12.0, 122.0}, 700, 75, RegionAsia},
	{"TR", "Turkey", Coord{39.0, 35.0}, 600, 70, RegionAsia},
	{"VN", "Vietnam", Coord{16.0, 107.0}, 700, 70, RegionAsia},
	{"GB", "United Kingdom", Coord{53.0, -1.5}, 350, 65, RegionEurope},
	{"IR", "Iran", Coord{32.0, 53.0}, 700, 62, RegionAsia},
	{"FR", "France", Coord{46.5, 2.5}, 400, 60, RegionEurope},
	{"TH", "Thailand", Coord{15.0, 101.0}, 500, 55, RegionAsia},
	{"IT", "Italy", Coord{42.5, 12.5}, 450, 51, RegionEurope},
	{"EG", "Egypt", Coord{27.0, 30.0}, 500, 54, RegionAfrica},
	{"KR", "South Korea", Coord{36.5, 127.8}, 250, 50, RegionAsia},
	{"ES", "Spain", Coord{40.0, -3.5}, 450, 43, RegionEurope},
	{"PK", "Pakistan", Coord{30.0, 70.0}, 700, 60, RegionAsia},
	{"BD", "Bangladesh", Coord{24.0, 90.0}, 300, 50, RegionAsia},
	{"CA", "Canada", Coord{50.0, -100.0}, 1800, 35, RegionNorthAmerica},
	{"AR", "Argentina", Coord{-34.0, -64.0}, 1100, 38, RegionSouthAmerica},
	{"CO", "Colombia", Coord{4.0, -73.0}, 600, 35, RegionSouthAmerica},
	{"PL", "Poland", Coord{52.0, 19.0}, 350, 33, RegionEurope},
	{"UA", "Ukraine", Coord{49.0, 32.0}, 500, 30, RegionEurope},
	{"ZA", "South Africa", Coord{-29.0, 25.0}, 700, 34, RegionAfrica},
	{"MY", "Malaysia", Coord{3.5, 102.0}, 500, 27, RegionAsia},
	{"SA", "Saudi Arabia", Coord{24.0, 45.0}, 700, 31, RegionAsia},
	{"PE", "Peru", Coord{-9.5, -75.5}, 700, 22, RegionSouthAmerica},
	{"TW", "Taiwan", Coord{23.7, 121.0}, 180, 21, RegionAsia},
	{"AU", "Australia", Coord{-25.0, 134.0}, 1600, 22, RegionOceania},
	{"NL", "Netherlands", Coord{52.2, 5.5}, 150, 16, RegionEurope},
	{"VE", "Venezuela", Coord{7.5, -66.0}, 600, 15, RegionSouthAmerica},
	{"CL", "Chile", Coord{-33.5, -70.8}, 900, 15, RegionSouthAmerica},
	{"RO", "Romania", Coord{46.0, 25.0}, 300, 15, RegionEurope},
	{"KE", "Kenya", Coord{0.5, 37.5}, 400, 21, RegionAfrica},
	{"EC", "Ecuador", Coord{-1.5, -78.5}, 350, 11, RegionSouthAmerica},
	{"SE", "Sweden", Coord{60.0, 15.0}, 500, 9, RegionEurope},
	{"BE", "Belgium", Coord{50.6, 4.6}, 120, 10, RegionEurope},
	{"CZ", "Czechia", Coord{49.8, 15.5}, 200, 9, RegionEurope},
	{"GR", "Greece", Coord{39.0, 22.0}, 300, 8, RegionEurope},
	{"PT", "Portugal", Coord{39.5, -8.0}, 250, 8, RegionEurope},
	{"HU", "Hungary", Coord{47.0, 19.5}, 180, 8, RegionEurope},
	{"CH", "Switzerland", Coord{46.8, 8.2}, 120, 8, RegionEurope},
	{"AT", "Austria", Coord{47.5, 14.5}, 180, 8, RegionEurope},
	{"IL", "Israel", Coord{31.5, 34.9}, 150, 7, RegionAsia},
	{"SG", "Singapore", Coord{1.35, 103.8}, 40, 5, RegionAsia},
	{"DK", "Denmark", Coord{56.0, 10.0}, 150, 6, RegionEurope},
	{"FI", "Finland", Coord{62.0, 26.0}, 450, 5, RegionEurope},
	{"NO", "Norway", Coord{61.0, 9.0}, 500, 5, RegionEurope},
	{"IE", "Ireland", Coord{53.2, -8.0}, 150, 4, RegionEurope},
	{"NZ", "New Zealand", Coord{-41.0, 173.0}, 500, 4, RegionOceania},
	{"BO", "Bolivia", Coord{-16.5, -64.5}, 500, 5, RegionSouthAmerica},
	{"PY", "Paraguay", Coord{-23.5, -58.0}, 350, 4, RegionSouthAmerica},
	{"UY", "Uruguay", Coord{-32.8, -56.0}, 250, 3, RegionSouthAmerica},
	{"GT", "Guatemala", Coord{15.5, -90.3}, 200, 6, RegionNorthAmerica},
	{"CR", "Costa Rica", Coord{10.0, -84.0}, 150, 4, RegionNorthAmerica},
	{"GH", "Ghana", Coord{8.0, -1.0}, 300, 10, RegionAfrica},
	{"MA", "Morocco", Coord{32.0, -6.0}, 400, 20, RegionAfrica},
	{"DZ", "Algeria", Coord{28.0, 3.0}, 600, 22, RegionAfrica},
	{"TZ", "Tanzania", Coord{-6.0, 35.0}, 450, 10, RegionAfrica},
	{"SR", "Suriname", Coord{4.0, -56.0}, 150, 0.4, RegionSouthAmerica},
	{"IS", "Iceland", Coord{65.0, -18.5}, 150, 0.3, RegionEurope},
	{"MN", "Mongolia", Coord{46.8, 103.8}, 500, 2, RegionAsia},
}

// CountryByCode returns the catalog entry for code.
func CountryByCode(code string) (Country, bool) {
	for _, c := range Countries {
		if c.Code == code {
			return c, true
		}
	}
	return Country{}, false
}
