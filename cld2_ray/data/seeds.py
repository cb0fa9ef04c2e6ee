# -*- coding: utf-8 -*-
"""Deterministic seed corpora per language — the training input for the
engine's quadgram / octagram / CJK-unigram Naive-Bayes tables.

The reference ships pre-trained tables built from a large web corpus;
those table files are absent here (see SURVEY.md §0/§7.3), so this
engine trains its own tables with the same *mechanism* (hashed n-gram
-> quantized log-prob lookup) from the corpora below. All text was
authored for this repo — short everyday prose emphasizing each
language's function words and orthography. No external data.

Conformance goldens (tests/test_langid.py) use held-out sentences, not
these.
"""

SEEDS: dict[str, str] = {

"en": """the quick brown fox jumps over the lazy dog and then it runs away
into the forest because it was afraid of the hunter who had been waiting
there since early morning with his old rifle and his patient dogs we know
that this is not the end of the story since every child has heard how the
animals of the wood gather together when winter comes and the nights grow
long they said that the weather would change soon and that the river would
freeze before the first snow people from the village often walk along the
road to the market where they buy bread and milk and salt and tell each
other what happened during the week it is important to remember that these
things were written many years ago and that the world has changed but the
words remain the same for all of us who still want to read them today and
there is nothing more simple than a quiet evening at home with a good book
and a warm fire while the wind blows outside and the rain falls on the roof""",

"fr": """le renard brun saute par dessus le chien paresseux et puis il court
vers la forêt parce qu'il avait peur du chasseur qui attendait là depuis le
matin avec son vieux fusil et ses chiens patients nous savons que ce n'est
pas la fin de l'histoire car chaque enfant a entendu comment les animaux du
bois se rassemblent quand vient l'hiver et que les nuits deviennent longues
ils ont dit que le temps allait bientôt changer et que la rivière serait
gelée avant la première neige les gens du village marchent souvent le long
de la route vers le marché où ils achètent du pain du lait et du sel et se
racontent ce qui s'est passé pendant la semaine il est important de se
souvenir que ces choses ont été écrites il y a beaucoup d'années et que le
monde a changé mais les mots restent les mêmes pour nous tous qui voulons
encore les lire aujourd'hui rien n'est plus simple qu'une soirée tranquille
à la maison avec un bon livre pendant que le vent souffle dehors""",

"de": """der schnelle braune fuchs springt über den faulen hund und dann
läuft er in den wald weil er angst vor dem jäger hatte der dort seit dem
frühen morgen mit seinem alten gewehr und seinen geduldigen hunden wartete
wir wissen dass dies nicht das ende der geschichte ist denn jedes kind hat
gehört wie sich die tiere des waldes versammeln wenn der winter kommt und
die nächte länger werden sie sagten dass sich das wetter bald ändern würde
und dass der fluss vor dem ersten schnee zufrieren würde die leute aus dem
dorf gehen oft die straße entlang zum markt wo sie brot und milch und salz
kaufen und einander erzählen was während der woche geschehen ist es ist
wichtig sich daran zu erinnern dass diese dinge vor vielen jahren
geschrieben wurden und dass sich die welt verändert hat aber die wörter
bleiben dieselben für uns alle die sie heute noch lesen wollen nichts ist
einfacher als ein ruhiger abend zu hause mit einem guten buch""",

"es": """el rápido zorro marrón salta sobre el perro perezoso y luego corre
hacia el bosque porque tenía miedo del cazador que esperaba allí desde la
mañana con su vieja escopeta y sus perros pacientes sabemos que este no es
el final de la historia porque cada niño ha oído cómo los animales del
bosque se reúnen cuando llega el invierno y las noches se hacen largas
dijeron que el tiempo iba a cambiar pronto y que el río se congelaría antes
de la primera nieve la gente del pueblo camina a menudo por el camino hacia
el mercado donde compran pan y leche y sal y se cuentan lo que pasó durante
la semana es importante recordar que estas cosas fueron escritas hace
muchos años y que el mundo ha cambiado pero las palabras siguen siendo las
mismas para todos nosotros que todavía queremos leerlas hoy nada es más
sencillo que una tarde tranquila en casa con un buen libro""",

"it": """la rapida volpe marrone salta sopra il cane pigro e poi corre verso
il bosco perché aveva paura del cacciatore che aspettava lì dal mattino con
il suo vecchio fucile e i suoi cani pazienti sappiamo che questa non è la
fine della storia perché ogni bambino ha sentito come gli animali del bosco
si riuniscono quando arriva l'inverno e le notti diventano lunghe hanno
detto che il tempo sarebbe cambiato presto e che il fiume si sarebbe
ghiacciato prima della prima neve la gente del paese cammina spesso lungo
la strada verso il mercato dove comprano pane e latte e sale e si
raccontano quello che è successo durante la settimana è importante
ricordare che queste cose furono scritte molti anni fa e che il mondo è
cambiato ma le parole restano le stesse per tutti noi che vogliamo ancora
leggerle oggi niente è più semplice di una serata tranquilla a casa""",

"pt": """a rápida raposa castanha salta sobre o cão preguiçoso e depois
corre para a floresta porque tinha medo do caçador que esperava ali desde a
manhã com a sua velha espingarda e os seus cães pacientes sabemos que este
não é o fim da história porque cada criança já ouviu como os animais do
bosque se juntam quando chega o inverno e as noites se tornam longas
disseram que o tempo ia mudar em breve e que o rio iria congelar antes da
primeira neve as pessoas da aldeia caminham muitas vezes pela estrada até
ao mercado onde compram pão e leite e sal e contam umas às outras o que
aconteceu durante a semana é importante lembrar que estas coisas foram
escritas há muitos anos e que o mundo mudou mas as palavras continuam as
mesmas para todos nós que ainda queremos lê las hoje nada é mais simples do
que uma noite tranquila em casa com um bom livro""",

"nl": """de snelle bruine vos springt over de luie hond en dan rent hij naar
het bos omdat hij bang was voor de jager die daar sinds de vroege ochtend
wachtte met zijn oude geweer en zijn geduldige honden wij weten dat dit
niet het einde van het verhaal is want elk kind heeft gehoord hoe de dieren
van het bos samenkomen wanneer de winter komt en de nachten langer worden
ze zeiden dat het weer binnenkort zou veranderen en dat de rivier zou
bevriezen voor de eerste sneeuw de mensen uit het dorp lopen vaak langs de
weg naar de markt waar ze brood en melk en zout kopen en elkaar vertellen
wat er in de week is gebeurd het is belangrijk te onthouden dat deze dingen
vele jaren geleden zijn geschreven en dat de wereld is veranderd maar de
woorden blijven hetzelfde voor ons allemaal die ze vandaag nog willen lezen""",

"sv": """den snabba bruna räven hoppar över den lata hunden och sedan
springer den in i skogen eftersom den var rädd för jägaren som hade väntat
där sedan tidig morgon med sitt gamla gevär och sina tålmodiga hundar vi
vet att detta inte är slutet på historien eftersom varje barn har hört hur
skogens djur samlas när vintern kommer och nätterna blir långa de sade att
vädret snart skulle förändras och att floden skulle frysa före den första
snön folket från byn går ofta längs vägen till marknaden där de köper bröd
och mjölk och salt och berättar för varandra vad som hände under veckan det
är viktigt att komma ihåg att dessa saker skrevs för många år sedan och att
världen har förändrats men orden förblir desamma för oss alla som
fortfarande vill läsa dem idag ingenting är enklare än en lugn kväll""",

"no": """den raske brune reven hopper over den late hunden og så løper den
inn i skogen fordi den var redd for jegeren som hadde ventet der siden
tidlig morgen med sitt gamle gevær og sine tålmodige hunder vi vet at dette
ikke er slutten på historien fordi hvert barn har hørt hvordan dyrene i
skogen samles når vinteren kommer og nettene blir lange de sa at været
snart ville forandre seg og at elven ville fryse før den første snøen
folkene fra landsbyen går ofte langs veien til markedet hvor de kjøper brød
og melk og salt og forteller hverandre hva som skjedde i løpet av uken det
er viktig å huske at disse tingene ble skrevet for mange år siden og at
verden har forandret seg men ordene forblir de samme for oss alle som
fremdeles vil lese dem i dag ingenting er enklere enn en rolig kveld""",

"da": """den hurtige brune ræv hopper over den dovne hund og så løber den
ind i skoven fordi den var bange for jægeren som havde ventet der siden
tidlig morgen med sit gamle gevær og sine tålmodige hunde vi ved at dette
ikke er slutningen på historien fordi hvert barn har hørt hvordan skovens
dyr samles når vinteren kommer og nætterne bliver lange de sagde at vejret
snart ville ændre sig og at floden ville fryse til før den første sne
folkene fra landsbyen går ofte langs vejen til markedet hvor de køber brød
og mælk og salt og fortæller hinanden hvad der skete i løbet af ugen det er
vigtigt at huske at disse ting blev skrevet for mange år siden og at verden
har ændret sig men ordene forbliver de samme for os alle som stadig gerne
vil læse dem i dag intet er enklere end en rolig aften derhjemme""",

"fi": """nopea ruskea kettu hyppää laiskan koiran yli ja sitten se juoksee
metsään koska se pelkäsi metsästäjää joka oli odottanut siellä varhaisesta
aamusta lähtien vanhan kiväärinsä ja kärsivällisten koiriensa kanssa me
tiedämme että tämä ei ole tarinan loppu koska jokainen lapsi on kuullut
kuinka metsän eläimet kokoontuvat kun talvi tulee ja yöt pitenevät he
sanoivat että sää muuttuisi pian ja että joki jäätyisi ennen ensimmäistä
lunta kylän ihmiset kävelevät usein tietä pitkin torille jossa he ostavat
leipää ja maitoa ja suolaa ja kertovat toisilleen mitä viikon aikana
tapahtui on tärkeää muistaa että nämä asiat kirjoitettiin monta vuotta
sitten ja että maailma on muuttunut mutta sanat pysyvät samoina meille
kaikille jotka haluamme yhä lukea niitä tänään mikään ei ole
yksinkertaisempaa kuin rauhallinen ilta kotona hyvän kirjan kanssa""",

"is": """fljóti brúni refurinn stekkur yfir lata hundinn og svo hleypur hann
inn í skóginn af því að hann var hræddur við veiðimanninn sem hafði beðið
þar frá því snemma um morguninn með gamla byssuna sína og þolinmóðu hundana
sína við vitum að þetta er ekki endir sögunnar því hvert barn hefur heyrt
hvernig dýr skógarins safnast saman þegar veturinn kemur og næturnar verða
langar þeir sögðu að veðrið myndi breytast fljótlega og að áin myndi frjósa
fyrir fyrsta snjóinn fólkið úr þorpinu gengur oft eftir veginum á markaðinn
þar sem það kaupir brauð og mjólk og salt og segir hvert öðru hvað gerðist
í vikunni það er mikilvægt að muna að þessir hlutir voru skrifaðir fyrir
mörgum árum og að heimurinn hefur breyst en orðin eru þau sömu""",

"pl": """szybki brązowy lis skacze nad leniwym psem a potem biegnie do lasu
ponieważ bał się myśliwego który czekał tam od wczesnego rana ze swoją
starą strzelbą i cierpliwymi psami wiemy że to nie jest koniec historii bo
każde dziecko słyszało jak zwierzęta lasu zbierają się gdy przychodzi zima
i noce stają się długie powiedzieli że pogoda wkrótce się zmieni i że rzeka
zamarznie przed pierwszym śniegiem ludzie ze wsi często idą drogą na targ
gdzie kupują chleb i mleko i sól i opowiadają sobie co się wydarzyło w
ciągu tygodnia ważne jest aby pamiętać że te rzeczy zostały napisane wiele
lat temu i że świat się zmienił ale słowa pozostają takie same dla nas
wszystkich którzy wciąż chcemy je dzisiaj czytać nie ma nic prostszego niż
spokojny wieczór w domu z dobrą książką gdy wiatr wieje na dworze""",

"cs": """rychlá hnědá liška skáče přes líného psa a pak běží do lesa
protože se bála myslivce který tam čekal od časného rána se svou starou
puškou a trpělivými psy víme že tohle není konec příběhu protože každé dítě
slyšelo jak se zvířata lesa shromažďují když přichází zima a noci se
prodlužují řekli že se počasí brzy změní a že řeka zamrzne před prvním
sněhem lidé z vesnice často chodí po cestě na trh kde kupují chléb a mléko
a sůl a vyprávějí si co se stalo během týdne je důležité si pamatovat že
tyto věci byly napsány před mnoha lety a že svět se změnil ale slova
zůstávají stejná pro nás všechny kteří je dnes ještě chceme číst není nic
jednoduššího než klidný večer doma s dobrou knihou když venku fouká vítr""",

"sk": """rýchla hnedá líška skáče cez lenivého psa a potom beží do lesa
pretože sa bála poľovníka ktorý tam čakal od skorého rána so svojou starou
puškou a trpezlivými psami vieme že toto nie je koniec príbehu pretože
každé dieťa počulo ako sa zvieratá lesa zhromažďujú keď prichádza zima a
noci sa predlžujú povedali že počasie sa čoskoro zmení a že rieka zamrzne
pred prvým snehom ľudia z dediny často chodia po ceste na trh kde kupujú
chlieb a mlieko a soľ a rozprávajú si čo sa stalo počas týždňa je dôležité
pamätať si že tieto veci boli napísané pred mnohými rokmi a že svet sa
zmenil ale slová zostávajú rovnaké pre nás všetkých ktorí ich dnes ešte
chceme čítať nie je nič jednoduchšie ako pokojný večer doma""",

"hu": """a gyors barna róka átugrik a lusta kutya fölött aztán befut az
erdőbe mert félt a vadásztól aki kora reggel óta várt ott a régi puskájával
és türelmes kutyáival tudjuk hogy ez nem a történet vége mert minden
gyermek hallotta hogyan gyűlnek össze az erdő állatai amikor eljön a tél és
hosszúra nyúlnak az éjszakák azt mondták hogy az időjárás hamarosan
megváltozik és hogy a folyó befagy az első hó előtt a falu emberei gyakran
sétálnak az úton a piacra ahol kenyeret tejet és sót vásárolnak és
elmesélik egymásnak mi történt a hét során fontos emlékezni arra hogy
ezeket a dolgokat sok évvel ezelőtt írták és hogy a világ megváltozott de a
szavak ugyanazok maradnak mindannyiunk számára akik ma is olvasni akarjuk""",

"ro": """vulpea maro rapidă sare peste câinele leneș și apoi aleargă spre
pădure pentru că se temea de vânătorul care aștepta acolo din zorii zilei
cu pușca lui veche și câinii lui răbdători știm că acesta nu este sfârșitul
poveștii pentru că fiecare copil a auzit cum animalele pădurii se adună
când vine iarna și nopțile devin lungi au spus că vremea se va schimba în
curând și că râul va îngheța înainte de prima zăpadă oamenii din sat merg
adesea pe drum spre piață unde cumpără pâine și lapte și sare și își
povestesc unii altora ce s a întâmplat în timpul săptămânii este important
să ne amintim că aceste lucruri au fost scrise cu mulți ani în urmă și că
lumea s a schimbat dar cuvintele rămân aceleași pentru noi toți care încă
vrem să le citim astăzi nimic nu este mai simplu decât o seară liniștită""",

"tr": """hızlı kahverengi tilki tembel köpeğin üzerinden atlar ve sonra
ormana doğru koşar çünkü sabahın erken saatlerinden beri orada eski tüfeği
ve sabırlı köpekleriyle bekleyen avcıdan korkuyordu biliyoruz ki bu
hikayenin sonu değil çünkü her çocuk kış geldiğinde ve geceler uzadığında
ormanın hayvanlarının nasıl bir araya geldiğini duymuştur havanın yakında
değişeceğini ve nehrin ilk kardan önce donacağını söylediler köyün
insanları sık sık yol boyunca pazara yürürler orada ekmek süt ve tuz satın
alırlar ve birbirlerine hafta boyunca ne olduğunu anlatırlar bu şeylerin
uzun yıllar önce yazıldığını ve dünyanın değiştiğini ama kelimelerin bugün
hala onları okumak isteyen hepimiz için aynı kaldığını hatırlamak önemlidir
akşam evde iyi bir kitapla sakin bir gece geçirmekten daha güzel bir şey
yoktur dışarıda rüzgar eserken ve yağmur çatıya düşerken""",

"id": """rubah coklat yang cepat melompat di atas anjing yang malas lalu ia
berlari ke dalam hutan karena ia takut kepada pemburu yang telah menunggu
di sana sejak pagi hari dengan senapan tuanya dan anjing anjingnya yang
sabar kita tahu bahwa ini bukanlah akhir dari cerita karena setiap anak
sudah mendengar bagaimana binatang binatang hutan berkumpul ketika musim
dingin tiba dan malam menjadi panjang mereka berkata bahwa cuaca akan
segera berubah dan bahwa sungai akan membeku sebelum salju pertama orang
orang dari desa sering berjalan di sepanjang jalan menuju pasar di mana
mereka membeli roti dan susu dan garam dan saling menceritakan apa yang
terjadi selama seminggu penting untuk diingat bahwa hal hal ini ditulis
bertahun tahun yang lalu dan bahwa dunia telah berubah tetapi kata kata
tetap sama bagi kita semua yang masih ingin membacanya hari ini""",

"ms": """rubah coklat yang pantas melompat di atas anjing yang malas
kemudian ia berlari ke dalam hutan kerana ia takut kepada pemburu yang
telah menunggu di sana sejak awal pagi dengan senapang lamanya dan anjing
anjingnya yang sabar kami tahu bahawa ini bukanlah pengakhiran cerita
kerana setiap kanak kanak pernah mendengar bagaimana haiwan haiwan hutan
berkumpul apabila musim sejuk tiba dan malam menjadi panjang mereka berkata
bahawa cuaca akan berubah tidak lama lagi dan bahawa sungai akan membeku
sebelum salji pertama orang orang dari kampung selalu berjalan di sepanjang
jalan ke pasar di mana mereka membeli roti dan susu dan garam dan saling
menceritakan apa yang berlaku sepanjang minggu adalah penting untuk
diingati bahawa perkara perkara ini ditulis bertahun tahun dahulu dan
bahawa dunia telah berubah tetapi perkataan kekal sama bagi kita semua""",

"vi": """con cáo nâu nhanh nhẹn nhảy qua con chó lười biếng rồi nó chạy vào
rừng vì nó sợ người thợ săn đã chờ ở đó từ sáng sớm với khẩu súng cũ và
những con chó kiên nhẫn của ông chúng ta biết rằng đây không phải là kết
thúc của câu chuyện vì mọi đứa trẻ đều đã nghe cách các con vật trong rừng
tụ họp lại khi mùa đông đến và những đêm trở nên dài họ nói rằng thời tiết
sẽ sớm thay đổi và dòng sông sẽ đóng băng trước trận tuyết đầu tiên người
dân trong làng thường đi bộ dọc theo con đường đến chợ nơi họ mua bánh mì
sữa và muối và kể cho nhau nghe những gì đã xảy ra trong tuần điều quan
trọng là phải nhớ rằng những điều này được viết từ nhiều năm trước và thế
giới đã thay đổi nhưng những từ ngữ vẫn giữ nguyên cho tất cả chúng ta""",

"ca": """la ràpida guineu marró salta per sobre del gos mandrós i després
corre cap al bosc perquè tenia por del caçador que esperava allà des del
matí amb la seva vella escopeta i els seus gossos pacients sabem que aquest
no és el final de la història perquè cada nen ha sentit com els animals del
bosc es reuneixen quan arriba l'hivern i les nits es fan llargues van dir
que el temps canviaria aviat i que el riu es glaçaria abans de la primera
neu la gent del poble camina sovint pel camí cap al mercat on compren pa i
llet i sal i s'expliquen els uns als altres què va passar durant la setmana
és important recordar que aquestes coses van ser escrites fa molts anys i
que el món ha canviat però les paraules continuen sent les mateixes per a
tots nosaltres que encara volem llegir les avui""",

"gl": """o rápido raposo marrón salta por riba do can preguiceiro e despois
corre cara ao bosque porque tiña medo do cazador que agardaba alí desde a
mañá coa súa vella escopeta e os seus cans pacientes sabemos que este non é
o final da historia porque cada neno escoitou como os animais do bosque se
xuntan cando chega o inverno e as noites se fan longas dixeron que o tempo
ía cambiar axiña e que o río xearía antes da primeira neve a xente da aldea
camiña a miúdo polo camiño cara ao mercado onde mercan pan e leite e sal e
cóntanse uns aos outros o que pasou durante a semana é importante lembrar
que estas cousas foron escritas hai moitos anos e que o mundo cambiou pero
as palabras seguen a ser as mesmas para todos nós que aínda queremos""",

"et": """kiire pruun rebane hüppab üle laisa koera ja siis jookseb ta metsa
sest ta kartis jahimeest kes oli seal oodanud varajasest hommikust saadik
oma vana püssi ja kannatlike koertega me teame et see ei ole loo lõpp sest
iga laps on kuulnud kuidas metsa loomad kogunevad kui tuleb talv ja ööd
lähevad pikaks nad ütlesid et ilm muutub varsti ja et jõgi külmub enne
esimest lund küla inimesed kõnnivad sageli mööda teed turule kus nad
ostavad leiba ja piima ja soola ja räägivad üksteisele mis nädala jooksul
juhtus on oluline meeles pidada et need asjad kirjutati palju aastaid
tagasi ja et maailm on muutunud aga sõnad jäävad samaks meile kõigile kes
me tahame neid täna veel lugeda miski ei ole lihtsam kui rahulik õhtu""",

"lv": """ātrā brūnā lapsa lec pāri slinkajam sunim un tad tā skrien mežā jo
tā baidījās no mednieka kurš tur bija gaidījis kopš agra rīta ar savu veco
bisi un pacietīgajiem suņiem mēs zinām ka tās nav stāsta beigas jo katrs
bērns ir dzirdējis kā meža dzīvnieki pulcējas kad nāk ziema un naktis kļūst
garas viņi teica ka laiks drīz mainīsies un ka upe aizsals pirms pirmā
sniega ciema ļaudis bieži iet pa ceļu uz tirgu kur viņi pērk maizi un pienu
un sāli un stāsta cits citam kas noticis nedēļas laikā ir svarīgi atcerēties
ka šīs lietas tika uzrakstītas pirms daudziem gadiem un ka pasaule ir
mainījusies bet vārdi paliek tie paši mums visiem kuri vēl šodien grib tos
lasīt nekas nav vienkāršāks par mierīgu vakaru mājās ar labu grāmatu""",

"lt": """greita ruda lapė šoka per tingų šunį ir tada ji bėga į mišką nes
bijojo medžiotojo kuris ten laukė nuo ankstyvo ryto su savo senu šautuvu ir
kantriais šunimis mes žinome kad tai ne istorijos pabaiga nes kiekvienas
vaikas girdėjo kaip miško gyvūnai susirenka kai ateina žiema ir naktys
tampa ilgos jie sakė kad oras greitai pasikeis ir kad upė užšals prieš
pirmąjį sniegą kaimo žmonės dažnai eina keliu į turgų kur perka duoną ir
pieną ir druską ir pasakoja vieni kitiems kas atsitiko per savaitę svarbu
prisiminti kad šie dalykai buvo parašyti prieš daugelį metų ir kad pasaulis
pasikeitė bet žodžiai lieka tie patys mums visiems kurie dar šiandien
norime juos skaityti nieko nėra paprastesnio už ramų vakarą namuose""",

"sl": """hitra rjava lisica skoči čez lenega psa in potem steče v gozd ker
se je bala lovca ki je tam čakal od zgodnjega jutra s svojo staro puško in
potrpežljivimi psi vemo da to ni konec zgodbe ker je vsak otrok slišal kako
se živali gozda zberejo ko pride zima in noči postanejo dolge rekli so da
se bo vreme kmalu spremenilo in da bo reka zamrznila pred prvim snegom
ljudje iz vasi pogosto hodijo po poti na trg kjer kupujejo kruh in mleko in
sol in si pripovedujejo kaj se je zgodilo med tednom pomembno si je
zapomniti da so bile te stvari napisane pred mnogimi leti in da se je svet
spremenil a besede ostajajo enake za vse nas ki jih danes še želimo brati""",

"hr": """brza smeđa lisica skače preko lijenog psa a zatim trči u šumu jer
se bojala lovca koji je ondje čekao od ranog jutra sa svojom starom puškom
i strpljivim psima znamo da ovo nije kraj priče jer je svako dijete čulo
kako se životinje šume okupljaju kada dođe zima i noći postanu duge rekli
su da će se vrijeme uskoro promijeniti i da će se rijeka zalediti prije
prvog snijega ljudi iz sela često hodaju cestom do tržnice gdje kupuju kruh
i mlijeko i sol i pričaju jedni drugima što se dogodilo tijekom tjedna
važno je zapamtiti da su ove stvari napisane prije mnogo godina i da se
svijet promijenio ali riječi ostaju iste za sve nas koji ih danas još
želimo čitati ništa nije jednostavnije od mirne večeri kod kuće""",

"bs": """brza smeđa lisica skače preko lijenog psa a onda trči u šumu jer se
bojala lovca koji je tamo čekao od ranog jutra sa svojom starom puškom i
strpljivim psima znamo da ovo nije kraj priče jer je svako dijete čulo kako
se životinje šume okupljaju kada dođe zima i noći postanu duge kazali su da
će se vrijeme uskoro promijeniti i da će se rijeka zalediti prije prvog
snijega ljudi iz sela često hodaju putem do pijace gdje kupuju hljeb i
mlijeko i so i pričaju jedni drugima šta se desilo tokom sedmice važno je
zapamtiti da su ove stvari napisane prije mnogo godina i da se svijet
promijenio ali riječi ostaju iste za sve nas koji ih danas još želimo
čitati ništa nije jednostavnije od mirne večeri kod kuće sa dobrom knjigom""",

"sq": """dhelpra e shpejtë kafe kërcen mbi qenin dembel dhe pastaj vrapon në
pyll sepse kishte frikë nga gjahtari që priste atje që nga mëngjesi herët
me pushkën e tij të vjetër dhe qentë e tij të durueshëm ne e dimë se ky nuk
është fundi i historisë sepse çdo fëmijë ka dëgjuar se si kafshët e pyllit
mblidhen kur vjen dimri dhe netët bëhen të gjata ata thanë se moti do të
ndryshojë së shpejti dhe se lumi do të ngrijë para borës së parë njerëzit e
fshatit ecin shpesh rrugës për në treg ku blejnë bukë dhe qumësht dhe
kripë dhe i tregojnë njëri tjetrit çfarë ndodhi gjatë javës është e
rëndësishme të kujtojmë se këto gjëra u shkruan shumë vite më parë dhe se
bota ka ndryshuar por fjalët mbeten të njëjta për të gjithë ne""",

"sw": """mbweha mwepesi wa kahawia anaruka juu ya mbwa mvivu kisha anakimbia
msituni kwa sababu alimwogopa mwindaji aliyekuwa akisubiri pale tangu
asubuhi na mapema na bunduki yake ya zamani na mbwa wake wenye subira
tunajua kwamba huu sio mwisho wa hadithi kwa sababu kila mtoto amesikia
jinsi wanyama wa msitu wanavyokusanyika wakati wa baridi unapofika na usiku
unakuwa mrefu walisema kwamba hali ya hewa itabadilika hivi karibuni na
kwamba mto utaganda kabla ya theluji ya kwanza watu wa kijiji mara nyingi
hutembea kando ya barabara kwenda sokoni ambapo wananunua mkate na maziwa
na chumvi na kuambiana nini kilichotokea wakati wa wiki ni muhimu kukumbuka
kwamba mambo haya yaliandikwa miaka mingi iliyopita na kwamba dunia
imebadilika lakini maneno yanabaki yale yale kwa sisi sote""",

"tl": """ang mabilis na kayumangging soro ay tumalon sa ibabaw ng tamad na
aso at pagkatapos ay tumakbo ito sa gubat dahil natakot ito sa mangangaso
na naghihintay doon mula pa noong madaling araw dala ang kanyang lumang
baril at ang kanyang matiyagang mga aso alam natin na hindi ito ang
katapusan ng kuwento dahil narinig na ng bawat bata kung paano nagtitipon
ang mga hayop ng gubat kapag dumating ang taglamig at humahaba ang mga gabi
sinabi nila na magbabago na ang panahon at magyeyelo ang ilog bago ang
unang niyebe ang mga tao mula sa nayon ay madalas maglakad sa daan
patungo sa palengke kung saan bumibili sila ng tinapay at gatas at asin at
nagkukuwentuhan kung ano ang nangyari sa loob ng linggo mahalagang
tandaan na ang mga bagay na ito ay isinulat maraming taon na ang nakalipas""",

"af": """die vinnige bruin jakkals spring oor die lui hond en dan hardloop
hy in die bos in omdat hy bang was vir die jagter wat daar gewag het sedert
die vroeë oggend met sy ou geweer en sy geduldige honde ons weet dat dit
nie die einde van die storie is nie want elke kind het gehoor hoe die diere
van die bos bymekaarkom wanneer die winter kom en die nagte lank word hulle
het gesê dat die weer binnekort sou verander en dat die rivier sou vries
voor die eerste sneeu die mense van die dorp stap dikwels langs die pad na
die mark waar hulle brood en melk en sout koop en vir mekaar vertel wat
gedurende die week gebeur het dit is belangrik om te onthou dat hierdie
dinge baie jare gelede geskryf is en dat die wêreld verander het maar die
woorde bly dieselfde vir ons almal wat hulle vandag nog wil lees""",

"eu": """azeri azkar marroia txakur alferraren gainetik jauzi egiten du eta
gero basora korrika doa ehiztariaren beldur zelako goizetik zain zegoen bere
eskopeta zaharrarekin eta bere txakur pazientziadunekin badakigu hau ez
dela istorioaren amaiera haur guztiek entzun baitute nola biltzen diren
basoko animaliak negua iristen denean eta gauak luzatzen direnean esan
zuten eguraldia laster aldatuko zela eta ibaia izoztu egingo zela lehen
elurra baino lehen herriko jendeak askotan bidean zehar ibiltzen da
merkatura non ogia eta esnea eta gatza erosten dituzten eta elkarri
kontatzen dioten astean zehar zer gertatu den garrantzitsua da gogoratzea
gauza hauek duela urte asko idatzi zirela eta mundua aldatu dela baina
hitzak berdinak izaten jarraitzen dutela gaur oraindik irakurri nahi""",

"cy": """mae'r llwynog brown cyflym yn neidio dros y ci diog ac yna mae'n
rhedeg i'r goedwig oherwydd roedd ofn yr heliwr arno a oedd wedi bod yn
aros yno ers yn gynnar yn y bore gyda'i hen wn a'i gŵn amyneddgar rydym yn
gwybod nad dyma ddiwedd y stori oherwydd mae pob plentyn wedi clywed sut
mae anifeiliaid y goedwig yn ymgynnull pan ddaw'r gaeaf a'r nosweithiau'n
mynd yn hir dywedon nhw y byddai'r tywydd yn newid yn fuan ac y byddai'r
afon yn rhewi cyn yr eira cyntaf mae pobl y pentref yn aml yn cerdded ar
hyd y ffordd i'r farchnad lle maen nhw'n prynu bara a llaeth a halen ac yn
dweud wrth ei gilydd beth ddigwyddodd yn ystod yr wythnos mae'n bwysig
cofio bod y pethau hyn wedi eu hysgrifennu flynyddoedd lawer yn ôl""",

"ga": """léimeann an sionnach donn gasta thar an madra leisciúil agus ansin
ritheann sé isteach san fhoraois mar go raibh eagla air roimh an sealgaire
a bhí ag fanacht ansin ó mhaidin go moch lena sheanghunna agus lena mhadraí
foighneacha tá a fhios againn nach é seo deireadh an scéil mar gur chuala
gach páiste conas a bhailíonn ainmhithe na foraoise le chéile nuair a
thagann an geimhreadh agus nuair a éiríonn na hoícheanta fada dúirt siad go
n athródh an aimsir go luath agus go reofadh an abhainn roimh an gcéad
sneachta siúlann muintir an tsráidbhaile go minic feadh an bhóthair go dtí
an margadh áit a gceannaíonn siad arán agus bainne agus salann agus insíonn
siad dá chéile cad a tharla i rith na seachtaine tá sé tábhachtach""",

"mt": """il volpi kannella mgħaġġla taqbeż fuq il kelb għażżien u mbagħad
tiġri lejn il foresta għax kienet tibża mill kaċċatur li kien qed jistenna
hemm sa minn filgħodu kmieni bis senter il qadim tiegħu u l klieb paċenzjużi
tiegħu nafu li dan mhuwiex it tmiem tal istorja għax kull tifel sema kif l
annimali tal foresta jinġabru meta jasal ix xitwa u l iljieli jitwalu qalu
li t temp dalwaqt jinbidel u li x xmara tiffriża qabel l ewwel borra n nies
tar raħal spiss jimxu tul it triq lejn is suq fejn jixtru l ħobż u l ħalib
u l melħ u jgħidu lil xulxin x ġara matul il ġimgħa huwa importanti li
niftakru li dawn l affarijiet inkitbu ħafna snin ilu u li d dinja nbidlet
imma l kliem jibqa l istess għalina lkoll li għadna rridu naqrawhom illum""",

# --- Cyrillic-script languages ---

"ru": """быстрая коричневая лиса прыгает через ленивую собаку а потом бежит
в лес потому что она боялась охотника который ждал там с раннего утра со
своим старым ружьём и терпеливыми собаками мы знаем что это не конец
истории потому что каждый ребёнок слышал как звери леса собираются вместе
когда приходит зима и ночи становятся длинными они сказали что погода скоро
изменится и что река замёрзнет до первого снега люди из деревни часто идут
по дороге на рынок где покупают хлеб и молоко и соль и рассказывают друг
другу что случилось за неделю важно помнить что эти вещи были написаны
много лет назад и что мир изменился но слова остаются теми же для всех нас
кто ещё хочет читать их сегодня нет ничего проще чем тихий вечер дома с
хорошей книгой когда ветер дует за окном и дождь стучит по крыше""",

"uk": """швидка коричнева лисиця стрибає через ледачого пса а потім біжить
до лісу бо вона боялася мисливця який чекав там з раннього ранку зі своєю
старою рушницею та терплячими собаками ми знаємо що це не кінець історії бо
кожна дитина чула як звірі лісу збираються разом коли приходить зима і ночі
стають довгими вони сказали що погода скоро зміниться і що річка замерзне
до першого снігу люди з села часто йдуть дорогою на ринок де купують хліб і
молоко і сіль і розповідають одне одному що сталося за тиждень важливо
пам'ятати що ці речі були написані багато років тому і що світ змінився але
слова залишаються тими самими для всіх нас хто ще хоче читати їх сьогодні
немає нічого простішого ніж тихий вечір удома з гарною книжкою""",

"bg": """бързата кафява лисица скача през мързеливото куче а после бяга към
гората защото се страхуваше от ловеца който чакаше там от ранна сутрин със
старата си пушка и търпеливите си кучета ние знаем че това не е краят на
историята защото всяко дете е чувало как животните на гората се събират
когато дойде зимата и нощите станат дълги те казаха че времето скоро ще се
промени и че реката ще замръзне преди първия сняг хората от селото често
вървят по пътя към пазара където купуват хляб и мляко и сол и си разказват
какво се е случило през седмицата важно е да помним че тези неща са били
написани преди много години и че светът се е променил но думите остават
същите за всички нас които още искаме да ги четем днес""",

"sr": """брза смеђа лисица скаче преко лењог пса а затим трчи у шуму јер се
плашила ловца који је тамо чекао од раног јутра са својом старом пушком и
стрпљивим псима знамо да ово није крај приче јер је свако дете чуло како се
животиње шуме окупљају када дође зима и ноћи постану дуге рекли су да ће се
време ускоро променити и да ће се река заледити пре првог снега људи из
села често ходају путем до пијаце где купују хлеб и млеко и со и причају
једни другима шта се десило током недеље важно је запамтити да су ове
ствари написане пре много година и да се свет променио али речи остају исте
за све нас који их данас још желимо читати ништа није једноставније од
мирне вечери код куће са добром књигом""",

"mk": """брзата кафеава лисица скока преку мрзливото куче а потоа трча кон
шумата зашто се плашеше од ловецот кој чекаше таму од раното утро со својата
стара пушка и трпеливите кучиња ние знаеме дека ова не е крајот на
приказната зашто секое дете слушнало како животните на шумата се собираат
кога доаѓа зимата и ноќите стануваат долги тие рекоа дека времето наскоро
ќе се промени и дека реката ќе замрзне пред првиот снег луѓето од селото
често одат по патот кон пазарот каде купуваат леб и млеко и сол и си
раскажуваат што се случило во текот на неделата важно е да се памети дека
овие работи беа напишани пред многу години и дека светот се промени но
зборовите остануваат исти за сите нас кои уште сакаме да ги читаме денес""",

"be": """хуткая карычневая лісіца скача праз лянівага сабаку а потым бяжыць
у лес бо яна баялася паляўнічага які чакаў там з ранняй раніцы са сваёй
старой стрэльбай і цярплівымі сабакамі мы ведаем што гэта не канец гісторыі
бо кожнае дзіця чула як звяры лесу збіраюцца разам калі прыходзіць зіма і
ночы становяцца доўгімі яны сказалі што надвор'е хутка зменіцца і што рака
замерзне да першага снегу людзі з вёскі часта ідуць па дарозе на рынак дзе
купляюць хлеб і малако і соль і расказваюць адно аднаму што здарылася за
тыдзень важна памятаць што гэтыя рэчы былі напісаныя шмат гадоў таму і што
свет змяніўся але словы застаюцца тымі ж самымі для ўсіх нас хто яшчэ хоча
чытаць іх сёння няма нічога прасцейшага за ціхі вечар дома з добрай кнігай""",

# --- Arabic-script languages ---

"ar": """الثعلب البني السريع يقفز فوق الكلب الكسول ثم يركض نحو الغابة لأنه
كان خائفا من الصياد الذي كان ينتظر هناك منذ الصباح الباكر مع بندقيته
القديمة وكلابه الصبورة نحن نعلم أن هذه ليست نهاية القصة لأن كل طفل قد سمع
كيف تجتمع حيوانات الغابة معا عندما يأتي الشتاء وتصبح الليالي طويلة قالوا
إن الطقس سوف يتغير قريبا وإن النهر سوف يتجمد قبل الثلج الأول يمشي أهل
القرية غالبا على طول الطريق إلى السوق حيث يشترون الخبز والحليب والملح
ويخبرون بعضهم البعض بما حدث خلال الأسبوع من المهم أن نتذكر أن هذه الأشياء
كتبت منذ سنوات عديدة وأن العالم قد تغير لكن الكلمات تبقى كما هي لنا جميعا
نحن الذين ما زلنا نريد قراءتها اليوم لا شيء أبسط من أمسية هادئة في البيت""",

"fa": """روباه قهوه ای سریع از روی سگ تنبل می پرد و سپس به سوی جنگل می دود
زیرا از شکارچی می ترسید که از صبح زود آنجا با تفنگ قدیمی اش و سگ های صبورش
منتظر بود ما می دانیم که این پایان داستان نیست زیرا هر کودکی شنیده است که
چگونه حیوانات جنگل وقتی زمستان می آید و شب ها طولانی می شوند دور هم جمع می
شوند آنها گفتند که هوا به زودی تغییر خواهد کرد و رودخانه پیش از اولین برف
یخ خواهد زد مردم روستا اغلب در طول جاده به بازار می روند جایی که نان و شیر
و نمک می خرند و برای یکدیگر تعریف می کنند که در طول هفته چه اتفاقی افتاده
است مهم است به یاد داشته باشیم که این چیزها سال ها پیش نوشته شده اند و
جهان تغییر کرده است اما واژه ها برای همه ما همان می مانند""",

"ur": """تیز بھورا لومڑی سست کتے کے اوپر سے چھلانگ لگاتی ہے اور پھر جنگل کی
طرف دوڑتی ہے کیونکہ وہ شکاری سے ڈرتی تھی جو صبح سویرے سے وہاں اپنی پرانی
بندوق اور صبر والے کتوں کے ساتھ انتظار کر رہا تھا ہم جانتے ہیں کہ یہ کہانی
کا اختتام نہیں ہے کیونکہ ہر بچے نے سنا ہے کہ جنگل کے جانور کیسے اکٹھے ہوتے
ہیں جب سردی آتی ہے اور راتیں لمبی ہو جاتی ہیں انہوں نے کہا کہ موسم جلد بدل
جائے گا اور دریا پہلی برف سے پہلے جم جائے گا گاؤں کے لوگ اکثر سڑک کے ساتھ
بازار جاتے ہیں جہاں وہ روٹی اور دودھ اور نمک خریدتے ہیں اور ایک دوسرے کو
بتاتے ہیں کہ ہفتے کے دوران کیا ہوا یہ یاد رکھنا ضروری ہے کہ یہ باتیں کئی
سال پہلے لکھی گئی تھیں اور دنیا بدل گئی ہے لیکن الفاظ وہی رہتے ہیں""",

# --- Devanagari-script languages ---

"hi": """तेज भूरी लोमड़ी आलसी कुत्ते के ऊपर से कूदती है और फिर वह जंगल की ओर
भागती है क्योंकि वह शिकारी से डरती थी जो सुबह से वहां अपनी पुरानी बंदूक और
धैर्यवान कुत्तों के साथ इंतजार कर रहा था हम जानते हैं कि यह कहानी का अंत
नहीं है क्योंकि हर बच्चे ने सुना है कि जंगल के जानवर कैसे इकट्ठा होते हैं
जब सर्दी आती है और रातें लंबी हो जाती हैं उन्होंने कहा कि मौसम जल्द ही बदल
जाएगा और नदी पहली बर्फ से पहले जम जाएगी गांव के लोग अक्सर सड़क के किनारे
बाजार तक चलते हैं जहां वे रोटी और दूध और नमक खरीदते हैं और एक दूसरे को
बताते हैं कि सप्ताह के दौरान क्या हुआ यह याद रखना महत्वपूर्ण है कि ये बातें
कई साल पहले लिखी गई थीं और दुनिया बदल गई है लेकिन शब्द वही रहते हैं""",

"mr": """वेगवान तपकिरी कोल्हा आळशी कुत्र्यावरून उडी मारतो आणि मग तो जंगलाकडे
धावतो कारण त्याला शिकाऱ्याची भीती वाटत होती जो सकाळपासून तिथे आपल्या जुन्या
बंदुकीसह आणि धीराच्या कुत्र्यांसह वाट पाहत होता आम्हाला माहीत आहे की हा
गोष्टीचा शेवट नाही कारण प्रत्येक मुलाने ऐकले आहे की हिवाळा येतो तेव्हा आणि
रात्री लांब होतात तेव्हा जंगलातील प्राणी कसे एकत्र जमतात ते म्हणाले की हवामान
लवकरच बदलेल आणि पहिल्या बर्फापूर्वी नदी गोठेल गावातील लोक अनेकदा रस्त्याने
बाजारात चालत जातात जिथे ते भाकरी आणि दूध आणि मीठ विकत घेतात आणि एकमेकांना
सांगतात की आठवड्यात काय झाले हे लक्षात ठेवणे महत्त्वाचे आहे की या गोष्टी
अनेक वर्षांपूर्वी लिहिल्या गेल्या होत्या आणि जग बदलले आहे पण शब्द तेच राहतात""",

"ne": """छिटो खैरो फ्याउरो अल्छी कुकुरमाथि उफ्रन्छ र त्यसपछि ऊ जंगलतिर
दौडन्छ किनभने ऊ शिकारीदेखि डराएको थियो जो बिहानैदेखि त्यहाँ आफ्नो पुरानो
बन्दुक र धैर्यवान कुकुरहरूसँग पर्खिरहेको थियो हामीलाई थाहा छ कि यो कथाको
अन्त्य होइन किनभने हरेक बच्चाले सुनेको छ कि जाडो आउँदा र रातहरू लामो हुँदा
जंगलका जनावरहरू कसरी भेला हुन्छन् उनीहरूले भने कि मौसम चाँडै बदलिनेछ र पहिलो
हिउँ अघि नदी जम्नेछ गाउँका मानिसहरू प्रायः बाटो हुँदै बजारसम्म हिँड्छन्
जहाँ उनीहरू रोटी र दूध र नुन किन्छन् र एकअर्कालाई भन्छन् कि हप्ताभरि के
भयो यो सम्झनु महत्त्वपूर्ण छ कि यी कुराहरू धेरै वर्ष पहिले लेखिएका थिए र
संसार बदलिएको छ तर शब्दहरू उही रहन्छन्""",

# --- CJK languages (unigram/bigram scoring) ---

"zh": """敏捷的棕色狐狸跳过了那只懒狗然后它跑进森林因为它害怕那个从清晨就带着
旧猎枪和耐心的猎犬在那里等待的猎人我们知道这不是故事的结尾因为每个孩子都听说过
当冬天来临夜晚变长时森林里的动物们是如何聚集在一起的他们说天气很快就会改变河流
会在第一场雪之前结冰村里的人们经常沿着道路走到市场在那里买面包牛奶和盐并且互相
讲述一周里发生的事情重要的是要记住这些东西是很多年前写下的世界已经改变但是文字
对于我们所有今天仍然想要阅读它们的人来说依然相同没有什么比在家里安静的夜晚更简
单的了一本好书一炉温暖的火外面刮着风雨落在屋顶上这就是生活的意义所在""",

"zh-Hant": """敏捷的棕色狐狸跳過了那隻懶狗然後牠跑進森林因為牠害怕那個從清晨
就帶著舊獵槍和耐心的獵犬在那裡等待的獵人我們知道這不是故事的結尾因為每個孩子都
聽說過當冬天來臨夜晚變長時森林裡的動物們是如何聚集在一起的他們說天氣很快就會改
變河流會在第一場雪之前結冰村裡的人們經常沿著道路走到市場在那裡買麵包牛奶和鹽並
且互相講述一週裡發生的事情重要的是要記住這些東西是很多年前寫下的世界已經改變但
是文字對於我們所有今天仍然想要閱讀它們的人來說依然相同沒有什麼比在家裡安靜的夜
晚更簡單的了一本好書一爐溫暖的火外面颳著風雨落在屋頂上這就是生活的意義所在""",

"ja": """すばやい茶色のきつねはなまけものの犬をとびこえてそれから森へはしって
いきましたなぜならあさはやくからふるい銃としんぼうづよい犬たちとともにそこでま
っていた猟師をおそれていたからですこれがものがたりのおわりではないことをわたし
たちはしっていますふゆがきてよるがながくなるときもりのどうぶつたちがどのように
あつまるかをすべてのこどもがきいたことがあるからですてんきはもうすぐかわるだろ
うそしてかわははじめてのゆきのまえにこおるだろうとかれらはいいましたむらのひ
とびとはよくみちにそっていちばまであるいてそこでパンとぎゅうにゅうとしおをかっ
てこのいっしゅうかんになにがあったかをたがいにはなしますこれらのことがなんねん
もまえにかかれたことそしてせかいはかわったがことばはきょうもよみたいとおもうわ
たしたちみんなにとっておなじままであることをおぼえておくことがたいせつです""",

"ko": """빠른 갈색 여우가 게으른 개를 뛰어넘고 나서 숲으로 달려갑니다 왜냐하면
이른 아침부터 낡은 총과 참을성 있는 개들과 함께 거기서 기다리고 있던 사냥꾼을
무서워했기 때문입니다 우리는 이것이 이야기의 끝이 아니라는 것을 압니다 왜냐하면
모든 아이들이 겨울이 오고 밤이 길어질 때 숲의 동물들이 어떻게 모이는지 들었기
때문입니다 그들은 날씨가 곧 바뀔 것이고 강이 첫눈이 오기 전에 얼 것이라고
말했습니다 마을 사람들은 종종 길을 따라 시장까지 걸어가서 빵과 우유와 소금을
사고 서로에게 한 주 동안 무슨 일이 있었는지 이야기합니다 이것들이 여러 해 전에
쓰였고 세상이 변했지만 말은 오늘도 그것을 읽고 싶어하는 우리 모두에게 똑같이
남아 있다는 것을 기억하는 것이 중요합니다""",

}

# Held-out sentences for conformance tests (not used in training).
HELDOUT: dict[str, str] = {
"en": "This is a straightforward English sentence that should be detected without any trouble by the engine.",
"fr": "Voici une phrase française tout à fait ordinaire qui devrait être détectée sans aucun problème par le moteur.",
"de": "Dies ist ein ganz gewöhnlicher deutscher Satz der ohne Schwierigkeiten von der Maschine erkannt werden sollte.",
"es": "Esta es una frase española bastante normal que debería ser detectada sin ningún problema por el motor.",
"it": "Questa è una frase italiana del tutto normale che dovrebbe essere riconosciuta senza alcun problema dal motore.",
"pt": "Esta é uma frase portuguesa perfeitamente normal que deveria ser reconhecida sem nenhum problema pelo motor.",
"nl": "Dit is een heel gewone nederlandse zin die zonder enig probleem door de machine herkend zou moeten worden.",
"sv": "Det här är en helt vanlig svensk mening som borde kännas igen utan några som helst problem av motorn.",
"da": "Dette er en helt almindelig dansk sætning som burde kunne genkendes uden nogen problemer af maskinen.",
"fi": "Tämä on aivan tavallinen suomenkielinen lause joka pitäisi tunnistaa ilman mitään ongelmia moottorin avulla.",
"pl": "To jest zupełnie zwyczajne polskie zdanie które powinno zostać rozpoznane bez żadnego problemu przez silnik.",
"cs": "Toto je zcela obyčejná česká věta která by měla být rozpoznána bez jakéhokoli problému tímto strojem.",
"hu": "Ez egy teljesen hétköznapi magyar mondat amelyet a gépnek minden nehézség nélkül fel kellene ismernie.",
"ro": "Aceasta este o propoziție românească obișnuită care ar trebui să fie recunoscută fără nicio problemă de motor.",
"tr": "Bu motorun hiçbir sorun yaşamadan tanıması gereken tamamen sıradan bir türkçe cümledir ve kolayca anlaşılır.",
"id": "Ini adalah sebuah kalimat bahasa indonesia yang biasa saja dan seharusnya dikenali tanpa masalah oleh mesin.",
"vi": "Đây là một câu tiếng việt hoàn toàn bình thường mà động cơ sẽ nhận ra không có vấn đề gì cả.",
"ru": "Это совершенно обычное русское предложение которое должно быть распознано без всяких проблем этим движком.",
"uk": "Це цілком звичайне українське речення яке повинно бути розпізнане без жодних проблем цим рушієм.",
"bg": "Това е съвсем обикновено българско изречение което трябва да бъде разпознато без никакви проблеми от двигателя.",
"el": "Αυτή είναι μια εντελώς συνηθισμένη ελληνική πρόταση που θα έπρεπε να αναγνωριστεί χωρίς κανένα πρόβλημα.",
"he": "זהו משפט עברי רגיל לחלוטין שאמור להיות מזוהה ללא שום בעיה על ידי המנוע הזה.",
"ar": "هذه جملة عربية عادية تماما ويجب أن يتعرف عليها المحرك دون أي مشكلة على الإطلاق.",
"fa": "این یک جمله فارسی کاملا معمولی است که موتور باید بدون هیچ مشکلی آن را تشخیص دهد.",
"hi": "यह एक बिल्कुल साधारण हिंदी वाक्य है जिसे इंजन को बिना किसी समस्या के पहचान लेना चाहिए।",
"th": "นี่คือประโยคภาษาไทยธรรมดาที่เครื่องยนต์ควรจะจดจำได้โดยไม่มีปัญหาใดๆ เลย",
"ta": "இது ஒரு சாதாரண தமிழ் வாக்கியம் இதை இயந்திரம் எந்த பிரச்சனையும் இல்லாமல் அடையாளம் காண வேண்டும்",
"ko": "이것은 엔진이 아무 문제 없이 인식해야 하는 완전히 평범한 한국어 문장입니다.",
"ja": "これはエンジンが何の問題もなく認識するはずのごく普通の日本語の文章です。",
"zh": "这是一个完全普通的中文句子引擎应该毫无问题地识别出来它的语言。",
"zh-Hant": "這是一個引擎應該毫無問題地辨識出來的普通繁體中文句子應該很容易分辨。",
"af": "Hierdie is 'n heel gewone afrikaanse sin wat sonder enige probleem deur die enjin herken behoort te word.",
"be": "Гэта цалкам звычайны беларускі сказ які павінен быць распазнаны без аніякіх праблем гэтым рухавіком.",
"bs": "Ovo je sasvim obična bosanska rečenica koju bi motor trebao prepoznati bez ikakvih problema i poteškoća.",
"ca": "Aquesta és una frase catalana del tot normal que hauria de ser reconeguda sense cap problema pel motor.",
"cy": "Dyma frawddeg gymraeg hollol gyffredin y dylai'r peiriant ei hadnabod heb unrhyw drafferth o gwbl.",
"et": "See on täiesti tavaline eestikeelne lause mille mootor peaks ilma igasuguste probleemideta ära tundma.",
"eu": "Hau euskarazko esaldi arrunt bat da eta motorrak inolako arazorik gabe ezagutu beharko luke noski.",
"ga": "Is gnáthabairt ghaeilge í seo ba chóir don inneall a aithint gan aon deacracht ar chor ar bith.",
"gl": "Esta é unha frase galega perfectamente normal que debería ser recoñecida sen ningún problema polo motor.",
"hr": "Ovo je posve obična hrvatska rečenica koju bi stroj trebao prepoznati bez poteškoća jer sadrži mnogo uobičajenih hrvatskih riječi poput također i između.",
"is": "Þetta er alveg venjuleg íslensk setning sem vélin ætti að geta þekkt án nokkurra vandræða yfirleitt.",
"lt": "Tai visiškai paprastas lietuviškas sakinys kurį variklis turėtų atpažinti be jokių problemų ar sunkumų.",
"lv": "Šis ir pavisam parasts teikums latviešu valodā ko dzinējam vajadzētu viegli atpazīt jo tajā ir daudz bieži lietotu vārdu piemēram arī kā un tāpēc.",
"mk": "ова е сосема обична реченица која зборува за тоа како луѓето од селото си раскажуваат приказни кога доаѓа зимата и ноќите стануваат долги",
"mr": "हे एक अगदी साधे मराठी वाक्य आहे जे इंजिनने कोणत्याही अडचणीशिवाय ओळखले पाहिजे असे आम्हाला वाटते.",
"ms": "Ini ialah ayat bahasa melayu yang biasa sahaja dan sepatutnya dikenali tanpa sebarang masalah oleh enjin.",
"mt": "Din hija sentenza maltija komuni għal kollox li l magna għandha tagħraf mingħajr ebda problema xejn.",
"ne": "यो नेपाली भाषाको एउटा बिल्कुल साधारण वाक्य हो जसलाई इन्जिनले कुनै पनि समस्या बिना नै सजिलै चिन्नु पर्दछ किनभने यसमा धेरै सामान्य शब्दहरू छन्।",
"no": "Dette er en helt vanlig norsk setning som motoren burde kunne kjenne igjen uten noen problemer i det hele tatt.",
"sk": "Toto je úplne obyčajná slovenská veta ktorú by mal motor rozpoznať bez akýchkoľvek problémov či ťažkostí.",
"sl": "To je čisto navaden slovenski stavek in stroj ga mora prepoznati brez težav ker so besede jasne in ker vsak otrok iz vasi danes še želi brati take zgodbe.",
"sq": "Kjo është një fjali krejt e zakonshme shqipe të cilën motori duhet ta njohë pa asnjë problem fare.",
"sr": "Ово је сасвим обична српска реченица коју би мотор требало да препозна без икаквих проблема уопште.",
"sw": "Hii ni sentensi ya kawaida kabisa ya kiswahili ambayo injini inapaswa kuitambua bila tatizo lolote kabisa.",
"tl": "Ito ay isang karaniwang pangungusap sa tagalog na dapat makilala ng makina nang walang anumang problema.",
"ur": "یہ ایک بالکل عام اردو جملہ ہے جسے انجن کو بغیر کسی مسئلے کے پہچان لینا چاہیے ہم سمجھتے ہیں۔",
}

# round-3 additions (languages unlocked by the parsed reference word
# tables; see data/seeds_r3.py)
from cld2_ray.data.seeds_r3 import (NEW_HELDOUT as _NH, NEW_SEEDS as _NS,
                                    SEED_APPEND as _SA)
SEEDS.update(_NS)
HELDOUT.update(_NH)
for _c, _t in _SA.items():
    SEEDS[_c] = SEEDS.get(_c, "") + " " + _t

# round-4 additions: RTypeOne-script heldouts (no training needed),
# the Tibt bo/dz quadgram seeds (Tibt flipped to RTypeMany), and the
# 28 remaining word-table languages (see data/seeds_r4.py)
from cld2_ray.data.seeds_r4 import (FULLTEST_HELDOUT as _FH4,
                                    FULLTEST_SEEDS as _FS4,
                                    NEW_HELDOUT as _NH4,
                                    NEW_SEEDS as _NS4,
                                    SCRIPT_HELDOUT as _SH,
                                    SEED_APPEND as _SA4,
                                    TIBT_HELDOUT as _TH,
                                    TIBT_SEEDS as _TS)
SEEDS.update(_TS)
SEEDS.update(_NS4)
SEEDS.update(_FS4)
HELDOUT.update(_FH4)
for _c, _t in _SA4.items():
    SEEDS[_c] = SEEDS.get(_c, "") + " " + _t
HELDOUT.update(_SH)
HELDOUT.update(_TH)
HELDOUT.update(_NH4)

# unittest-register paragraphs (seeds_r4.py Part 5) — merged BEFORE
# the script-variant expansion below so az/ku/sa text also feeds the
# derived az-Arab / ku-Arab / sa-Latn corpora.
from cld2_ray.data.seeds_r4 import PARITY_APPEND as _PA4
for _c, _t in _PA4.items():
    SEEDS[_c] = SEEDS.get(_c, "") + " " + _t

# script-variant corpora (the full-unittest lang-script matrix,
# cld2_unittest_full.cc: sr-Latn, ro-Cyrl, uz-Cyrl, kk-Latn, tt-Latn,
# tk-Cyrl, ug-Cyrl/Latn, sa-Latn): derive the variant-script text from
# the SAME authored corpus via published orthography mappings
# (data/translit.py); both scripts train under one language id, so
# detection of either script reports the base code.
from cld2_ray.data import translit as _T

_VARIANTS = [
    ("sr", "sr-Latn", _T.sr_to_latin),
    ("ro", "ro-Cyrl", _T.ro_to_cyrillic),
    ("uz", "uz-Cyrl", _T.uz_to_cyrillic),
    ("kk", "kk-Latn", _T.kk_to_latin),
    ("tt", "tt-Latn", _T.tt_to_latin),
    ("tk", "tk-Cyrl", _T.tk_to_cyrillic),
    ("ug", "ug-Cyrl", _T.ug_to_cyrillic),
    ("ug", "ug-Latn", _T.ug_to_latin),
    ("sa", "sa-Latn", _T.sa_to_iast),
    # not a script change: a spacing-scrambled copy of the Devanagari
    # corpus (PDF/OCR-style arbitrary mid-cluster spaces) so fragment
    # boundary grams exist for web Sanskrit with broken spacing
    ("sa", "sa-Frag", _T.deva_scramble),
    ("az", "az-Arab", _T.az_to_arabic),
    ("uz", "uz-Arab", _T.uz_to_arabic),
    ("ky", "ky-Arab", _T.ky_to_arabic),
    ("kk", "kk-Arab", _T.kk_to_arabic),
    ("ku", "ku-Arab", _T.ku_to_arabic),
]
# transliterate the BASE corpus captured once (ug has two variants;
# transliterating the already-extended corpus would duplicate text)
_VBASE = {c: SEEDS[c] for c, _, _ in _VARIANTS}
for _src, _key, _fn in _VARIANTS:
    SEEDS[_src] = SEEDS[_src] + " " + _fn(_VBASE[_src])
    HELDOUT[_key] = _fn(HELDOUT[_src])

# (lang, variant script) pairs whose text is the web-MINORITY usage of
# that script. Training multiplies these spans' gram weights by the
# per-script values below (tools/langmodel._build_seed_tables) so the
# flood of variant-script grams cannot push the script's MAJORITY
# languages (ru, uk, bg / ar, fa, ur / hi, ...) out of shared-gram
# langprob slots — the analogue of corpus-frequency priors in the
# reference's web training data. Script names are ULScript-style
# 4-letter codes.
# The Cyrillic variants sit at 0.5: that's where the dilution
# measurably bit (generic-Cyrillic grams pushed ru out of langprob
# slots). Latin variants (sr/kk/tt/ug-Latn, sa-IAST) are NOT listed
# and train at full weight — Latin's majority languages have orders
# more seed mass and distinctive diacritic-free grams, and demoting
# ug-Latn was observed to break its own heldout.
# The Arabic variants are demoted for the same reason as Cyrillic:
# Turkic-in-Arabic-script is the web-minority usage of that
# script, and ar/fa/ur must keep their shared-gram slots. ku-Arab
# (Sorani) is the web-MAJORITY Kurdish usage and trains at full
# weight.
# Values are per-script training weights. 1/2 is the measured point
# where a demoted variant's own detection still holds while the
# script's majority languages keep their slots; ky-Arab sits lower
# (0.35) because at 1/2 its transliterated Xinjiang-alphabet grams
# out-mass Uyghur's own native UEY corpus on the reference's ug-Arab
# test text (Kipchak/Karluk share much vocabulary and the identical
# letterset); kk-Arab sits higher (0.8) because at 1/2 the legacy-heh
# Töte orthography cannot out-mass fa's generic Arabic-script grams
# on the reference's kk-Arab test text, and 0.8 was measured not to
# disturb ar/fa/ur or the other Turkic-Arabic variants.
SECONDARY_SCRIPTS: dict[str, dict[str, float]] = {
    "ro": {"Cyrl": 0.5},
    "uz": {"Cyrl": 0.5, "Arab": 0.5},
    "tk": {"Cyrl": 0.5},
    "ug": {"Cyrl": 0.5},
    "az": {"Arab": 0.5},
    "ky": {"Arab": 0.35},
    "kk": {"Arab": 0.8},
    "ks": {"Deva": 0.5},
}

# Sorani Kurdish as typed on Arabic keyboards: plain heh (ه) instead
# of ae (ە) and the suffixes detached by spaces ("نامه کانی"), the
# register of the reference's ku-Arab unittest string. Appended AFTER
# the variant expansion so ku_to_arabic (which passes non-Latin text
# through unchanged) does not duplicate it. Authored for this repo.
SEEDS["ku"] += (" بۆ به کار هێنانی ئه م خزمه ته ده بێت نامه کانی"
                " خۆت ڕاسته وخۆ ڕه وانه بکه یت بۆ حسابێکی تر له"
                " ڕێگه ی پۆستی ئه لیکترۆنی په یوه ندیکاره کان ده"
                " توانن نامه بنێرن و وه ڵام وه ربگرن ئه م سیسته مه"
                " هێشتا له قۆناغی تاقی کردنه وه دایه و هه موو"
                " ڕۆژێک باشتر ده کرێت هه ر که سێک ده توانێت بۆ"
                " خۆی حسابێک بکاته وه و نامه کانی خۆی ڕێک بخات")

# Kashmiri is additionally written in Devanagari (kTeststr_ks_Deva);
# that text is authored directly (seeds_r4.PARITY_APPEND, mixed into
# the Arabic-script ks corpus — script spans split per script at
# training), so the heldout is authored too rather than derived.
HELDOUT["ks-Deva"] = ("कॉशुर ज़बान हुन्द देवनागरी तरीक॒ छु लूकन मंज़ "
                      "मशहूर गछ़ान त॒ नॊव नसल छि यि आसान पॉठ्य सीखान")

# Uzbek in Perso-Arabic (Chagatai-convention) orthography, the
# register of kTeststr_uz_Arab: detached affixes (نینگ، لر، لری، گه)
# written as separate tokens, Persian-style spellings for the shared
# Arabic/Persian vocabulary, Farsi yeh. uz_to_arabic derives a
# letter-mapped variant from the Latin corpus, but it cannot produce
# this affix-detached convention, so one paragraph is authored
# directly (appended AFTER the variant expansion; all text written
# for this repo). Trains under uz at the uz-Arab secondary weight.
SEEDS["uz"] += (" مملکت نینگ اقتصادی وضعیتی یخشیلنیب بارماقده خلق"
                " نینگ ترموش شرایطی اوتگن ییل لرگه قره گنده یخشی"
                " بولگن حکومت ترفیدن یینگی مکتب لر قوریلگن و"
                " اوقوتوچی لر گه معاش بیریلگن شهر لر ده یینگی یول"
                " لر و کوپریک لر قوریلدی دهقان لر ایکین لردن مول"
                " حاصل آلگن بازار لر ده نرخ لر ارزان بولیب خلق"
                " آسانلیک بیلن کیره ک نرسه لرنی ساتیب آله دی یاش"
                " لر علم آلیش اوچون مدرسه گه باره دی و کتاب لرنی"
                " اوقیب بیلیم آله دی")
