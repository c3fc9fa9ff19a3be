package geo

// Countries used by the synthetic world. The paper measured nodes in 172
// countries; the named set below covers every country appearing in a paper
// table plus enough background countries to reproduce the country-count
// marginals. Names follow common short forms.
var Countries = []struct {
	Code CountryCode
	Name string
}{
	// Countries named in the paper's tables and text.
	{"MY", "Malaysia"}, {"ID", "Indonesia"}, {"CN", "China"}, {"GB", "United Kingdom"},
	{"DE", "Germany"}, {"US", "United States"}, {"IN", "India"}, {"BR", "Brazil"},
	{"BJ", "Benin"}, {"JO", "Jordan"}, {"AR", "Argentina"}, {"AU", "Australia"},
	{"ES", "Spain"}, {"GR", "Greece"}, {"ZA", "South Africa"}, {"EG", "Egypt"},
	{"MA", "Morocco"}, {"TR", "Turkey"}, {"TN", "Tunisia"}, {"PH", "Philippines"},
	{"FR", "France"}, {"RU", "Russia"}, {"IL", "Israel"}, {"PL", "Poland"},
	// Background countries for marginal counts.
	{"AE", "United Arab Emirates"}, {"AF", "Afghanistan"}, {"AL", "Albania"},
	{"AM", "Armenia"}, {"AO", "Angola"}, {"AT", "Austria"}, {"AZ", "Azerbaijan"},
	{"BA", "Bosnia and Herzegovina"}, {"BD", "Bangladesh"}, {"BE", "Belgium"},
	{"BF", "Burkina Faso"}, {"BG", "Bulgaria"}, {"BH", "Bahrain"}, {"BI", "Burundi"},
	{"BN", "Brunei"}, {"BO", "Bolivia"}, {"BS", "Bahamas"}, {"BT", "Bhutan"},
	{"BW", "Botswana"}, {"BY", "Belarus"}, {"BZ", "Belize"}, {"CA", "Canada"},
	{"CD", "DR Congo"}, {"CG", "Congo"}, {"CH", "Switzerland"}, {"CI", "Ivory Coast"},
	{"CL", "Chile"}, {"CM", "Cameroon"}, {"CO", "Colombia"}, {"CR", "Costa Rica"},
	{"CU", "Cuba"}, {"CV", "Cape Verde"}, {"CY", "Cyprus"}, {"CZ", "Czechia"},
	{"DJ", "Djibouti"}, {"DK", "Denmark"}, {"DM", "Dominica"}, {"DO", "Dominican Republic"},
	{"DZ", "Algeria"}, {"EC", "Ecuador"}, {"EE", "Estonia"}, {"ET", "Ethiopia"},
	{"FI", "Finland"}, {"FJ", "Fiji"}, {"GA", "Gabon"}, {"GE", "Georgia"},
	{"GH", "Ghana"}, {"GM", "Gambia"}, {"GN", "Guinea"}, {"GQ", "Equatorial Guinea"},
	{"GT", "Guatemala"}, {"GW", "Guinea-Bissau"}, {"GY", "Guyana"}, {"HK", "Hong Kong"},
	{"HN", "Honduras"}, {"HR", "Croatia"}, {"HT", "Haiti"}, {"HU", "Hungary"},
	{"IE", "Ireland"}, {"IQ", "Iraq"}, {"IR", "Iran"}, {"IS", "Iceland"},
	{"IT", "Italy"}, {"JM", "Jamaica"}, {"JP", "Japan"}, {"KE", "Kenya"},
	{"KG", "Kyrgyzstan"}, {"KH", "Cambodia"}, {"KM", "Comoros"}, {"KR", "South Korea"},
	{"KW", "Kuwait"}, {"KZ", "Kazakhstan"}, {"LA", "Laos"}, {"LB", "Lebanon"},
	{"LK", "Sri Lanka"}, {"LR", "Liberia"}, {"LS", "Lesotho"}, {"LT", "Lithuania"},
	{"LU", "Luxembourg"}, {"LV", "Latvia"}, {"LY", "Libya"}, {"MC", "Monaco"},
	{"MD", "Moldova"}, {"ME", "Montenegro"}, {"MG", "Madagascar"}, {"MK", "North Macedonia"},
	{"ML", "Mali"}, {"MM", "Myanmar"}, {"MN", "Mongolia"}, {"MO", "Macao"},
	{"MR", "Mauritania"}, {"MT", "Malta"}, {"MU", "Mauritius"}, {"MV", "Maldives"},
	{"MW", "Malawi"}, {"MX", "Mexico"}, {"MZ", "Mozambique"}, {"NA", "Namibia"},
	{"NE", "Niger"}, {"NG", "Nigeria"}, {"NI", "Nicaragua"}, {"NL", "Netherlands"},
	{"NO", "Norway"}, {"NP", "Nepal"}, {"NZ", "New Zealand"}, {"OM", "Oman"},
	{"PA", "Panama"}, {"PE", "Peru"}, {"PG", "Papua New Guinea"}, {"PK", "Pakistan"},
	{"PT", "Portugal"}, {"PY", "Paraguay"}, {"QA", "Qatar"}, {"RO", "Romania"},
	{"RS", "Serbia"}, {"RW", "Rwanda"}, {"SA", "Saudi Arabia"}, {"SC", "Seychelles"},
	{"SD", "Sudan"}, {"SE", "Sweden"}, {"SG", "Singapore"}, {"SI", "Slovenia"},
	{"SK", "Slovakia"}, {"SL", "Sierra Leone"}, {"SN", "Senegal"}, {"SO", "Somalia"},
	{"SR", "Suriname"}, {"SV", "El Salvador"}, {"SY", "Syria"}, {"SZ", "Eswatini"},
	{"TD", "Chad"}, {"TG", "Togo"}, {"TH", "Thailand"}, {"TJ", "Tajikistan"},
	{"TM", "Turkmenistan"}, {"TO", "Tonga"}, {"TT", "Trinidad and Tobago"},
	{"TW", "Taiwan"}, {"TZ", "Tanzania"}, {"UA", "Ukraine"}, {"UG", "Uganda"},
	{"UY", "Uruguay"}, {"UZ", "Uzbekistan"}, {"VE", "Venezuela"}, {"VN", "Vietnam"},
	{"VU", "Vanuatu"}, {"WS", "Samoa"}, {"YE", "Yemen"}, {"ZM", "Zambia"},
	{"ZW", "Zimbabwe"}, {"KY", "Cayman Islands"}, {"BM", "Bermuda"}, {"AD", "Andorra"},
	{"AG", "Antigua and Barbuda"}, {"AW", "Aruba"}, {"BB", "Barbados"},
	{"CW", "Curacao"}, {"ER", "Eritrea"}, {"FO", "Faroe Islands"}, {"GD", "Grenada"},
	{"GI", "Gibraltar"}, {"GL", "Greenland"}, {"KN", "Saint Kitts and Nevis"},
	{"LC", "Saint Lucia"}, {"LI", "Liechtenstein"}, {"MF", "Saint Martin"},
	{"NC", "New Caledonia"}, {"PF", "French Polynesia"}, {"PR", "Puerto Rico"},
	{"PS", "Palestine"}, {"RE", "Reunion"}, {"SB", "Solomon Islands"},
	{"SM", "San Marino"}, {"ST", "Sao Tome and Principe"}, {"TL", "Timor-Leste"},
	{"VC", "Saint Vincent"}, {"VG", "British Virgin Islands"}, {"VI", "US Virgin Islands"},
}

// CountryName returns the short name for code, or the code itself when the
// country is outside the curated set.
func CountryName(code CountryCode) string {
	for _, c := range Countries {
		if c.Code == code {
			return c.Name
		}
	}
	return string(code)
}
