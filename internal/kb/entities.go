package kb

import "repro/internal/rdf"

// buildCuratedEntities asserts the hand-curated core of the knowledge
// base: every entity the paper's running examples mention plus the
// entities the QALD-style evaluation set requires, with realistic facts
// (values follow the 2012-era DBpedia 3.7/3.8 snapshots the paper used).
func (kb *builder) buildCuratedEntities() {
	e := kb.ent
	date := rdf.NewDate
	i := rdf.NewInteger
	d := rdf.NewDouble

	// --- Writers and their books (the paper's Figure 1 example) ---
	pamuk := e("Orhan_Pamuk", "Orhan Pamuk", "Writer")
	istanbul := e("Istanbul", "Istanbul", "City")
	kb.fact(pamuk, "birthPlace", istanbul)
	kb.dataFact(pamuk, "birthDate", date("1952-06-07"))
	for _, b := range []struct{ local, label string }{
		{"Snow_(novel)", "Snow"},
		{"My_Name_Is_Red", "My Name Is Red"},
		{"The_Black_Book_(Pamuk_novel)", "The Black Book"},
		{"The_White_Castle", "The White Castle"},
		{"The_Museum_of_Innocence", "The Museum of Innocence"},
	} {
		book := e(b.local, b.label, "Book")
		kb.fact(book, "author", pamuk)
		kb.fact(book, "writer", pamuk)
	}
	nobelLit := e("Nobel_Prize_in_Literature", "Nobel Prize in Literature", "Award")
	kb.fact(pamuk, "award", nobelLit)

	wells := e("H._G._Wells", "H. G. Wells", "Writer")
	kb.dataFact(wells, "birthDate", date("1866-09-21"))
	kb.dataFact(wells, "deathDate", date("1946-08-13"))
	london := e("London", "London", "City")
	kb.fact(wells, "deathPlace", london)
	for _, b := range []struct{ local, label string }{
		{"The_Time_Machine", "The Time Machine"},
		{"The_War_of_the_Worlds", "The War of the Worlds"},
		{"The_Invisible_Man", "The Invisible Man"},
	} {
		book := e(b.local, b.label, "Book")
		kb.fact(book, "author", wells)
		kb.fact(book, "writer", wells)
	}

	herbert := e("Frank_Herbert", "Frank Herbert", "Writer")
	madison := e("Madison,_Wisconsin", "Madison", "City")
	tacoma := e("Tacoma,_Washington", "Tacoma", "City")
	kb.fact(herbert, "birthPlace", tacoma)
	kb.fact(herbert, "deathPlace", madison)
	kb.dataFact(herbert, "birthDate", date("1920-10-08"))
	kb.dataFact(herbert, "deathDate", date("1986-02-11"))
	for _, b := range []struct{ local, label string }{
		{"Dune_(novel)", "Dune"},
		{"Dune_Messiah", "Dune Messiah"},
		{"Children_of_Dune", "Children of Dune"},
	} {
		book := e(b.local, b.label, "Book")
		kb.fact(book, "author", herbert)
		kb.fact(book, "writer", herbert)
	}

	hemingway := e("Ernest_Hemingway", "Ernest Hemingway", "Writer")
	oakPark := e("Oak_Park,_Illinois", "Oak Park", "Town")
	ketchum := e("Ketchum,_Idaho", "Ketchum", "Town")
	kb.fact(hemingway, "birthPlace", oakPark)
	kb.fact(hemingway, "hometown", ketchum)
	kb.fact(hemingway, "residence", ketchum)
	kb.fact(hemingway, "deathPlace", ketchum)
	kb.dataFact(hemingway, "deathDate", date("1961-07-02"))
	oldMan := e("The_Old_Man_and_the_Sea", "The Old Man and the Sea", "Book")
	kb.fact(oldMan, "author", hemingway)
	kb.fact(oldMan, "writer", hemingway)

	shakespeare := e("William_Shakespeare", "William Shakespeare", "Writer")
	stratford := e("Stratford-upon-Avon", "Stratford-upon-Avon", "Town")
	kb.fact(shakespeare, "birthPlace", stratford)
	kb.fact(shakespeare, "deathPlace", stratford)
	for _, b := range []struct{ local, label string }{
		{"Hamlet", "Hamlet"}, {"Macbeth", "Macbeth"}, {"Othello", "Othello"},
	} {
		book := e(b.local, b.label, "Book")
		kb.fact(book, "author", shakespeare)
		kb.fact(book, "writer", shakespeare)
	}

	// --- Athletes (the paper's §2.2.2 example) ---
	jordan := e("Michael_Jordan", "Michael Jordan", "BasketballPlayer")
	brooklyn := e("Brooklyn", "Brooklyn", "City")
	bulls := e("Chicago_Bulls", "Chicago Bulls", "BasketballTeam")
	nba := e("National_Basketball_Association", "National Basketball Association", "SportsLeague")
	kb.dataFact(jordan, "height", d(1.98))
	kb.dataFact(jordan, "weight", d(98.0))
	kb.dataFact(jordan, "birthDate", date("1963-02-17"))
	kb.fact(jordan, "birthPlace", brooklyn)
	kb.fact(jordan, "team", bulls)
	kb.fact(bulls, "league", nba)
	// NED ambiguity: a second, sparsely linked Michael Jordan.
	jordanFoot := e("Michael_Jordan_(footballer)", "Michael Jordan", "SoccerPlayer")
	kb.dataFact(jordanFoot, "height", d(1.85))
	// Extra links make the basketball player globally more central.
	for _, t := range []ref{nba, brooklyn, bulls} {
		kb.link(jordan, t)
	}
	pippen := e("Scottie_Pippen", "Scottie Pippen", "BasketballPlayer")
	kb.dataFact(pippen, "height", d(2.03))
	kb.fact(pippen, "team", bulls)

	// --- Presidents, politicians (paper's intro: leaderName example) ---
	lincoln := e("Abraham_Lincoln", "Abraham Lincoln", "President")
	washington := e("Washington,_D.C.", "Washington, D.C.", "City")
	hodgenville := e("Hodgenville,_Kentucky", "Hodgenville", "Town")
	maryTodd := e("Mary_Todd_Lincoln", "Mary Todd Lincoln", "Person")
	kb.fact(lincoln, "deathPlace", washington)
	kb.fact(lincoln, "birthPlace", hodgenville)
	kb.fact(lincoln, "spouse", maryTodd)
	kb.fact(maryTodd, "spouse", lincoln)
	kb.dataFact(lincoln, "birthDate", date("1809-02-12"))
	kb.dataFact(lincoln, "deathDate", date("1865-04-15"))

	obama := e("Barack_Obama", "Barack Obama", "President")
	michelle := e("Michelle_Obama", "Michelle Obama", "Person")
	honolulu := e("Honolulu", "Honolulu", "City")
	harvard := e("Harvard_University", "Harvard University", "University")
	kb.fact(obama, "spouse", michelle)
	kb.fact(michelle, "spouse", obama)
	kb.fact(obama, "birthPlace", honolulu)
	kb.fact(obama, "almaMater", harvard)
	kb.fact(michelle, "almaMater", harvard)
	kb.dataFact(obama, "birthDate", date("1961-08-04"))

	merkel := e("Angela_Merkel", "Angela Merkel", "PrimeMinister")
	leipzig := e("Leipzig_University", "Leipzig University", "University")
	kb.fact(merkel, "almaMater", leipzig)
	gauck := e("Joachim_Gauck", "Joachim Gauck", "President")
	wowereit := e("Klaus_Wowereit", "Klaus Wowereit", "OfficeHolder")
	gul := e("Abdullah_Gul", "Abdullah Gul", "President")

	// --- Musicians (the paper's §2.2.3 example) ---
	jackson := e("Michael_Jackson", "Michael Jackson", "MusicalArtist")
	gary := e("Gary,_Indiana", "Gary, Indiana", "City")
	la := e("Los_Angeles", "Los Angeles", "City")
	kb.fact(jackson, "birthPlace", gary)
	kb.fact(jackson, "deathPlace", la)
	kb.dataFact(jackson, "birthDate", date("1958-08-29"))
	kb.dataFact(jackson, "deathDate", date("2009-06-25"))
	thriller := e("Thriller_(album)", "Thriller", "Album")
	bad := e("Bad_(album)", "Bad", "Album")
	kb.fact(thriller, "writer", jackson)
	kb.fact(bad, "writer", jackson)

	// --- Scientists ---
	einstein := e("Albert_Einstein", "Albert Einstein", "Scientist")
	ulm := e("Ulm", "Ulm", "City")
	princeton := e("Princeton,_New_Jersey", "Princeton", "Town")
	eth := e("ETH_Zurich", "ETH Zurich", "University")
	nobelPhys := e("Nobel_Prize_in_Physics", "Nobel Prize in Physics", "Award")
	kb.fact(einstein, "birthPlace", ulm)
	kb.fact(einstein, "deathPlace", princeton)
	kb.fact(einstein, "almaMater", eth)
	kb.fact(einstein, "award", nobelPhys)
	kb.dataFact(einstein, "birthDate", date("1879-03-14"))
	kb.dataFact(einstein, "deathDate", date("1955-04-18"))

	// --- Countries, cities (Italy's population is the paper's intro) ---
	italy := e("Italy", "Italy", "Country")
	rome := e("Rome", "Rome", "City")
	euro := e("Euro", "Euro", "Currency")
	italian := e("Italian_language", "Italian", "Language")
	kb.dataFact(italy, "populationTotal", i(59464644)) // paper intro value
	kb.fact(italy, "capital", rome)
	kb.fact(italy, "largestCity", rome)
	kb.fact(italy, "currency", euro)
	kb.fact(italy, "officialLanguage", italian)
	kb.dataFact(rome, "populationTotal", i(2777979))
	kb.fact(rome, "country", italy)

	turkey := e("Turkey", "Turkey", "Country")
	ankara := e("Ankara", "Ankara", "City")
	turkishLang := e("Turkish_language", "Turkish", "Language")
	lira := e("Turkish_lira", "Turkish lira", "Currency")
	kb.fact(turkey, "capital", ankara)
	kb.fact(turkey, "largestCity", istanbul)
	kb.fact(turkey, "officialLanguage", turkishLang)
	kb.fact(turkey, "currency", lira)
	kb.fact(turkey, "leaderName", gul)
	kb.dataFact(turkey, "populationTotal", i(74724269))
	kb.fact(ankara, "country", turkey)
	kb.dataFact(ankara, "populationTotal", i(4890893))
	kb.dataFact(ankara, "elevation", d(938))
	kb.fact(istanbul, "country", turkey)
	kb.dataFact(istanbul, "populationTotal", i(13854740))

	germany := e("Germany", "Germany", "Country")
	berlin := e("Berlin", "Berlin", "City")
	german := e("German_language", "German", "Language")
	kb.fact(germany, "capital", berlin)
	kb.fact(germany, "largestCity", berlin)
	kb.fact(germany, "officialLanguage", german)
	kb.fact(germany, "currency", euro)
	kb.fact(germany, "leaderName", gauck)  // head of state (QALD-2 era)
	kb.fact(germany, "chancellor", merkel) // head of government
	kb.dataFact(germany, "populationTotal", i(80219695))
	kb.fact(berlin, "country", germany)
	kb.fact(berlin, "mayor", wowereit)
	kb.dataFact(berlin, "populationTotal", i(3501872))

	usa := e("United_States", "United States", "Country")
	usd := e("United_States_dollar", "United States dollar", "Currency")
	english := e("English_language", "English", "Language")
	kb.fact(usa, "capital", washington)
	kb.fact(usa, "leaderName", obama) // the paper's intro triple
	kb.fact(usa, "currency", usd)
	kb.fact(usa, "officialLanguage", english)
	kb.dataFact(usa, "populationTotal", i(308745538))
	kb.fact(washington, "country", usa)
	kb.dataFact(washington, "populationTotal", i(601723))

	uk := e("United_Kingdom", "United Kingdom", "Country")
	kb.fact(uk, "capital", london)
	kb.fact(uk, "officialLanguage", english)
	kb.dataFact(uk, "populationTotal", i(63181775))
	kb.fact(london, "country", uk)
	kb.dataFact(london, "populationTotal", i(8173941))

	france := e("France", "France", "Country")
	paris := e("Paris", "Paris", "City")
	frenchLang := e("French_language", "French", "Language")
	kb.fact(france, "capital", paris)
	kb.fact(france, "officialLanguage", frenchLang)
	kb.fact(france, "currency", euro)
	kb.dataFact(france, "populationTotal", i(65350000))
	kb.fact(paris, "country", france)
	kb.dataFact(paris, "populationTotal", i(2249975))

	spain := e("Spain", "Spain", "Country")
	madrid := e("Madrid", "Madrid", "City")
	kb.fact(spain, "capital", madrid)
	kb.fact(spain, "currency", euro)
	kb.dataFact(spain, "populationTotal", i(46815916))
	kb.fact(madrid, "country", spain)
	kb.dataFact(madrid, "populationTotal", i(3233527))

	// The Victoria ambiguity used by the evaluation's NED-error case:
	// the Canadian city is far more heavily linked than the Australian
	// state, so label-only disambiguation picks it.
	vicCity := e("Victoria,_British_Columbia", "Victoria", "City")
	canada := e("Canada", "Canada", "Country")
	kb.fact(vicCity, "country", canada)
	kb.dataFact(vicCity, "populationTotal", i(80017))
	vicState := e("Victoria_(Australia)", "Victoria", "PopulatedPlace")
	australia := e("Australia", "Australia", "Country")
	kb.fact(vicState, "country", australia)
	kb.dataFact(vicState, "populationTotal", i(5926624))
	kb.fact(canada, "capital", e("Ottawa", "Ottawa", "City"))
	kb.dataFact(canada, "populationTotal", i(33476688))
	kb.dataFact(australia, "populationTotal", i(21507717))
	for _, t := range []ref{canada, brooklyn, london, washington} {
		kb.link(vicCity, t)
	}

	// --- Mountains, rivers, lakes ---
	everest := e("Mount_Everest", "Mount Everest", "Mountain")
	kb.dataFact(everest, "elevation", d(8848.0))
	k2 := e("K2", "K2", "Mountain")
	kb.dataFact(k2, "elevation", d(8611.0))
	kangch := e("Kangchenjunga", "Kangchenjunga", "Mountain")
	kb.dataFact(kangch, "elevation", d(8586.0))
	lhotse := e("Lhotse", "Lhotse", "Mountain")
	kb.dataFact(lhotse, "elevation", d(8516.0))
	zugspitze := e("Zugspitze", "Zugspitze", "Mountain")
	kb.dataFact(zugspitze, "elevation", d(2962.0))
	kb.fact(zugspitze, "country", germany)

	nile := e("Nile", "Nile", "River")
	kb.dataFact(nile, "length", d(6650.0))
	amazonRiver := e("Amazon_River", "Amazon River", "River")
	kb.dataFact(amazonRiver, "length", d(6400.0))
	rhine := e("Rhine", "Rhine", "River")
	kb.dataFact(rhine, "length", d(1230.0))
	kb.fact(rhine, "sourceCountry", e("Switzerland", "Switzerland", "Country"))
	mississippi := e("Mississippi_River", "Mississippi River", "River")
	kb.dataFact(mississippi, "length", d(3730.0))
	kb.fact(mississippi, "sourceCountry", usa)

	baikal := e("Lake_Baikal", "Lake Baikal", "Lake")
	kb.dataFact(baikal, "depth", d(1642.0))

	// --- Companies, software, games ---
	intel := e("Intel", "Intel", "Company")
	moore := e("Gordon_Moore", "Gordon Moore", "Person")
	noyce := e("Robert_Noyce", "Robert Noyce", "Person")
	santaClara := e("Santa_Clara,_California", "Santa Clara", "City")
	kb.fact(intel, "foundedBy", moore)
	kb.fact(intel, "foundedBy", noyce)
	kb.fact(intel, "headquarter", santaClara)
	kb.dataFact(intel, "foundingDate", date("1968-07-18"))
	kb.dataFact(intel, "numberOfEmployees", i(100100))

	apple := e("Apple_Inc.", "Apple", "Company")
	jobs := e("Steve_Jobs", "Steve Jobs", "Person")
	cupertino := e("Cupertino,_California", "Cupertino", "City")
	kb.fact(apple, "foundedBy", jobs)
	kb.fact(apple, "headquarter", cupertino)
	kb.fact(apple, "keyPerson", e("Tim_Cook", "Tim Cook", "Person"))
	kb.dataFact(apple, "numberOfEmployees", i(72800))

	microsoft := e("Microsoft", "Microsoft", "Company")
	gates := e("Bill_Gates", "Bill Gates", "Person")
	redmond := e("Redmond,_Washington", "Redmond", "City")
	kb.fact(microsoft, "foundedBy", gates)
	kb.fact(microsoft, "headquarter", redmond)
	kb.dataFact(microsoft, "numberOfEmployees", i(94000))

	mojang := e("Mojang", "Mojang", "Company")
	persson := e("Markus_Persson", "Markus Persson", "Person")
	stockholm := e("Stockholm", "Stockholm", "City")
	kb.fact(mojang, "foundedBy", persson)
	kb.fact(mojang, "headquarter", stockholm)
	minecraft := e("Minecraft", "Minecraft", "VideoGame")
	kb.fact(minecraft, "developer", mojang)
	kb.dataFact(minecraft, "releaseDate", date("2011-11-18"))

	blizzard := e("Blizzard_Entertainment", "Blizzard Entertainment", "Company")
	wow := e("World_of_Warcraft", "World of Warcraft", "VideoGame")
	kb.fact(wow, "developer", blizzard)

	// --- Films ---
	godfather := e("The_Godfather", "The Godfather", "Film")
	coppola := e("Francis_Ford_Coppola", "Francis Ford Coppola", "Person")
	brando := e("Marlon_Brando", "Marlon Brando", "Actor")
	pacino := e("Al_Pacino", "Al Pacino", "Actor")
	kb.fact(godfather, "director", coppola)
	kb.fact(godfather, "starring", brando)
	kb.fact(godfather, "starring", pacino)
	kb.dataFact(godfather, "runtime", d(175.0))
	kb.dataFact(godfather, "releaseDate", date("1972-03-24"))

	hitchcock := e("Alfred_Hitchcock", "Alfred Hitchcock", "Person")
	for _, f := range []struct{ local, label string }{
		{"Psycho_(1960_film)", "Psycho"},
		{"Vertigo_(film)", "Vertigo"},
		{"The_Birds_(film)", "The Birds"},
		{"Rear_Window", "Rear Window"},
	} {
		film := e(f.local, f.label, "Film")
		kb.fact(film, "director", hitchcock)
	}
	kb.fact(hitchcock, "deathPlace", la)
	kb.dataFact(hitchcock, "deathDate", date("1980-04-29"))

	pitt := e("Brad_Pitt", "Brad Pitt", "Actor")
	for _, f := range []struct{ local, label string }{
		{"Fight_Club", "Fight Club"},
		{"Troy_(film)", "Troy"},
		{"Seven_(film)", "Seven"},
	} {
		film := e(f.local, f.label, "Film")
		kb.fact(film, "starring", pitt)
	}

	// --- Bridges (crosses property) ---
	goldenGate := e("Golden_Gate_Bridge", "Golden Gate Bridge", "Bridge")
	kb.fact(goldenGate, "location", e("San_Francisco", "San Francisco", "City"))
	brooklynBridge := e("Brooklyn_Bridge", "Brooklyn Bridge", "Bridge")
	eastRiver := e("East_River", "East River", "River")
	kb.fact(brooklynBridge, "crosses", eastRiver)

	// --- Awards ---
	nobelPeace := e("Nobel_Peace_Prize", "Nobel Peace Prize", "Award")
	kb.fact(obama, "award", nobelPeace)
}
