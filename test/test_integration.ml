(* SQL conformance battery: each query runs under all three optimizer
   technology levels and must produce the expected rows (hand-computed
   against the toy database) under every one.

   Toy data:
     emp:  (1,ann,1,100) (2,bob,1,200) (3,cid,2,300) (4,dan,99,400)
     dept: (1,eng) (2,ops) (3,hr)
     bag:  (1,10) (1,10) (2,20) *)

let db = lazy (Support.toy_db ())

let all_configs =
  [ ("correlated", Optimizer.Config.correlated_only);
    ("decorrelated", Optimizer.Config.decorrelated_only);
    ("full", Optimizer.Config.full)
  ]

let check (sql, expected) =
  List.iter
    (fun (cname, config) ->
      let got = Engine.bag (Support.run_sql ~config (Lazy.force db) sql) in
      Alcotest.(check (list string)) (cname ^ ": " ^ sql) (List.sort compare expected) got)
    all_configs

let battery name cases = Alcotest.test_case name `Quick (fun () -> List.iter check cases)

let projections =
  [ ("select eid from emp", [ "1"; "2"; "3"; "4" ]);
    ("select eid + 1, salary * 2 from emp where eid = 1", [ "2|200.0" ]);
    ("select name from emp where eid % 2 = 0", [ "bob"; "dan" ]);
    ("select eid from emp where -eid = -3", [ "3" ]);
    ("select 1 + 2 * 3 from emp where eid = 1", [ "7" ]);
    ("select eid from emp where salary / 2 = 100", [ "2" ])
  ]

let filters =
  [ ("select eid from emp where salary between 150 and 350", [ "2"; "3" ]);
    ("select eid from emp where salary not between 150 and 350", [ "1"; "4" ]);
    ("select eid from emp where name in ('ann', 'dan')", [ "1"; "4" ]);
    ("select eid from emp where name not in ('ann', 'dan')", [ "2"; "3" ]);
    ("select eid from emp where not (salary > 250)", [ "1"; "2" ]);
    ("select eid from emp where dept = 1 or dept = 2", [ "1"; "2"; "3" ]);
    ("select eid from emp where true", [ "1"; "2"; "3"; "4" ]);
    ("select eid from emp where false", []);
    ("select eid from emp where name like '%n%'", [ "1"; "4" ])
  ]

let joins =
  [ ( "select name, dname from emp, dept where dept = did and salary > 150",
      [ "bob|eng"; "cid|ops" ] );
    ( "select name, dname from emp left join dept on dept = did and dname = 'eng'",
      [ "ann|eng"; "bob|eng"; "cid|NULL"; "dan|NULL" ] );
    ( "select e1.name, e2.name from emp e1, emp e2 where e1.dept = e2.dept and e1.eid < e2.eid",
      [ "ann|bob" ] );
    ( "select name from emp, dept where dept = did and dname like 'e%'",
      [ "ann"; "bob" ] );
    ("select count(*) from emp, dept", [ "12" ]);
    ( "select dname, x from dept, bag where did = x",
      [ "eng|1"; "eng|1"; "ops|2" ] )
  ]

let aggregates =
  [ ("select sum(salary) from emp where dept = 1", [ "300.0" ]);
    ("select count(*), count(dname) from emp left join dept on dept = did", [ "4|3" ]);
    ("select min(name), max(name) from emp", [ "ann|dan" ]);
    ("select avg(salary) from emp where dept = 1", [ "150.0" ]);
    ("select dept, count(*) from emp group by dept having sum(salary) >= 300", [ "1|2"; "2|1"; "99|1" ]);
    ("select x, sum(y), count(*) from bag group by x", [ "1|20|2"; "2|20|1" ]);
    ("select dept from emp group by dept having min(salary) > 150", [ "2"; "99" ]);
    ("select count(*) from emp where salary > 1000", [ "0" ]);
    ("select sum(salary + 1) from emp where dept = 1", [ "302.0" ]);
    ("select distinct dept from emp where salary <= 300", [ "1"; "2" ])
  ]

let subqueries =
  [ ( "select did from dept where 150 < (select sum(salary) from emp where dept = did)",
      [ "1"; "2" ] );
    ( "select did from dept where (select count(*) from emp where dept = did) = 0",
      [ "3" ] );
    ( "select name from emp where salary = (select max(salary) from emp)",
      [ "dan" ] );
    ( "select name from emp where salary > (select avg(e2.salary) from emp e2 where e2.dept = emp.dept)",
      [ "bob" ] );
    ( "select eid from emp where exists (select 1 from dept where did = dept and dname = 'eng')",
      [ "1"; "2" ] );
    ( "select eid from emp where dept in (select did from dept where dname <> 'hr')",
      [ "1"; "2"; "3" ] );
    ( "select eid from emp where salary >= all (select salary from emp e2)",
      [ "4" ] );
    ( "select eid from emp where salary <= any (select salary from emp e2 where e2.eid <> emp.eid)",
      [ "1"; "2"; "3" ] );
    (* uncorrelated subqueries *)
    ( "select eid from emp where dept = (select min(did) from dept)",
      [ "1"; "2" ] );
    (* nested two levels *)
    ( "select name from emp where dept in (select did from dept where did < (select max(did) from dept))",
      [ "ann"; "bob"; "cid" ] );
    (* subquery in the select list *)
    ( "select dname, (select count(*) from emp where dept = did) from dept",
      [ "eng|2"; "hr|0"; "ops|1" ] );
    (* union all inside a derived table *)
    ( "select v from (select eid as v from emp where dept = 1 union all select did from dept) u",
      [ "1"; "1"; "2"; "2"; "3" ] )
  ]

let nulls =
  [ (* padded columns compare as NULL *)
    ( "select name from emp left join dept on dept = did where dname is null",
      [ "dan" ] );
    ( "select name from emp left join dept on dept = did where dname is not null",
      [ "ann"; "bob"; "cid" ] );
    (* aggregates over padded groups *)
    ( "select name, (select sum(did) from dept where did = dept) from emp",
      [ "ann|1"; "bob|1"; "cid|2"; "dan|NULL" ] );
    (* scalar subquery with empty result in arithmetic *)
    ( "select eid from emp where salary + (select did from dept where did = 50) > 0",
      [] );
    (* count of empty is zero, sum of empty is null *)
    ( "select (select count(*) from emp where dept = 42), (select sum(salary) from emp where dept = 42) from dept where did = 1",
      [ "0|NULL" ] )
  ]

let ordering =
  [ ("select name from emp order by salary desc limit 1", [ "dan" ]);
    ("select name from emp order by name limit 2", [ "ann"; "bob" ]);
    ("select eid from emp order by dept desc, salary asc limit 2", [ "4"; "3" ]);
    ("select dept, sum(salary) as s from emp group by dept order by s desc limit 1", [ "99|400.0" ])
  ]

let derived_tables =
  [ ( "select t.n from (select name as n, salary as s from emp) t where t.s > 250",
      [ "cid"; "dan" ] );
    ( "select d.dname, t.total from dept d, (select dept, sum(salary) as total from emp group by dept) t \
       where t.dept = d.did",
      [ "eng|300.0"; "ops|300.0" ] );
    ( "select a.v + b.v from (select max(salary) as v from emp) a, (select min(salary) as v from emp) b",
      [ "500.0" ] )
  ]

let case_expressions =
  [ ( "select name, case when salary < 150 then 'low' when salary < 350 then 'mid' else 'high' end from emp",
      [ "ann|low"; "bob|mid"; "cid|mid"; "dan|high" ] );
    ( "select sum(case when dept = 1 then salary else 0 end) from emp",
      [ "300.0" ] );
    ("select case when 1 = 2 then 'x' end from emp where eid = 1", [ "NULL" ])
  ]

let suite =
  [ battery "projections and arithmetic" projections;
    battery "filters" filters;
    battery "joins" joins;
    battery "aggregates" aggregates;
    battery "subqueries" subqueries;
    battery "null semantics" nulls;
    battery "ordering and limits" ordering;
    battery "derived tables" derived_tables;
    battery "case expressions" case_expressions
  ]
