"""Unit tests for SQL → polygen algebra translation (paper, §III)."""

import pytest

from repro.core.expression import Join, Product, Project, Restrict, SchemeRef, Select
from repro.datasets.paper import paper_polygen_schema
from repro.errors import TranslationError
from repro.translate.translator import translate_sql

PAPER_SQL = """
SELECT ONAME, CEO
FROM PORGANIZATION, PALUMNUS
WHERE CEO = ANAME AND ONAME IN
    (SELECT ONAME FROM PCAREER WHERE AID# IN
        (SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))
"""

#: The paper's §III algebraic expression, in our renderer's notation.
PAPER_ALGEBRA = (
    '(((((PALUMNUS [DEGREE = "MBA"]) [AID# = AID#] PCAREER) '
    "[ONAME = ONAME] PORGANIZATION) [CEO = ANAME]) [ONAME, CEO])"
)


@pytest.fixture(scope="module")
def schema():
    return paper_polygen_schema()


class TestPaperTranslation:
    def test_reproduces_the_papers_expression(self, schema):
        result = translate_sql(PAPER_SQL, schema)
        assert result.render() == PAPER_ALGEBRA

    def test_outer_palumnus_is_dropped(self, schema):
        # The paper binds ANAME against the subquery's PALUMNUS; the outer
        # FROM PALUMNUS is never joined.
        result = translate_sql(PAPER_SQL, schema)
        assert result.dropped_tables == ("PALUMNUS",)

    def test_tree_shape(self, schema):
        expr = translate_sql(PAPER_SQL, schema).expression
        assert isinstance(expr, Project)
        assert expr.attributes == ("ONAME", "CEO")
        assert isinstance(expr.child, Restrict)
        join2 = expr.child.child
        assert isinstance(join2, Join)
        assert join2.right == SchemeRef("PORGANIZATION")
        join1 = join2.left
        assert isinstance(join1, Join)
        assert join1.right == SchemeRef("PCAREER")
        assert isinstance(join1.left, Select)


class TestGeneralTranslation:
    def test_plain_select(self, schema):
        result = translate_sql('SELECT ANAME FROM PALUMNUS WHERE DEGREE = "MBA"', schema)
        assert result.render() == '((PALUMNUS [DEGREE = "MBA"]) [ANAME])'

    def test_select_star_has_no_projection(self, schema):
        result = translate_sql('SELECT * FROM PALUMNUS WHERE DEGREE = "MBA"', schema)
        assert isinstance(result.expression, Select)

    def test_no_where(self, schema):
        result = translate_sql("SELECT ANAME FROM PALUMNUS", schema)
        assert result.render() == "(PALUMNUS [ANAME])"

    def test_attribute_pair_joins_two_tables(self, schema):
        result = translate_sql(
            "SELECT POSITION FROM PCAREER, PALUMNUS WHERE ANAME = POSITION", schema
        )
        expr = result.expression
        assert isinstance(expr, Project)
        assert isinstance(expr.child, Join)

    def test_section_one_style_query(self, schema):
        # Literal select happens first, then the cross-table comparison
        # becomes a join.
        result = translate_sql(
            'SELECT CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND DEGREE = "MBA"',
            schema,
        )
        expr = result.expression
        assert isinstance(expr, Project)
        join = expr.child
        assert isinstance(join, Join)
        assert join.left_attribute == "CEO"
        assert join.right_attribute == "ANAME"
        assert isinstance(join.right, Select)  # PALUMNUS [DEGREE = "MBA"]
        assert result.dropped_tables == ()

    def test_in_against_single_table(self, schema):
        result = translate_sql(
            'SELECT POSITION FROM PCAREER WHERE AID# IN '
            '(SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA")',
            schema,
        )
        assert result.render() == (
            '(((PALUMNUS [DEGREE = "MBA"]) [AID# = AID#] PCAREER) [POSITION])'
        )

    def test_in_against_single_table_shape(self, schema):
        result = translate_sql(
            'SELECT POSITION FROM PCAREER WHERE AID# IN '
            '(SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA")',
            schema,
        )
        expr = result.expression
        assert isinstance(expr, Project)
        assert isinstance(expr.child, Join)

    def test_unconnected_tables_with_selected_attrs_product(self, schema):
        result = translate_sql("SELECT ANAME, SNAME FROM PALUMNUS, PSTUDENT", schema)
        expr = result.expression
        assert isinstance(expr, Project)
        assert isinstance(expr.child, Product)

    def test_multiple_literal_conditions_stack(self, schema):
        result = translate_sql(
            'SELECT ANAME FROM PALUMNUS WHERE DEGREE = "MBA" AND MAJOR = "IS"', schema
        )
        expr = result.expression.child
        assert isinstance(expr, Select)
        assert isinstance(expr.child, Select)


class TestTranslationErrors:
    def test_unknown_scheme(self, schema):
        with pytest.raises(TranslationError):
            translate_sql("SELECT A FROM NOPE", schema)

    def test_unknown_attribute(self, schema):
        with pytest.raises(TranslationError):
            translate_sql("SELECT NOPE FROM PALUMNUS", schema)

    def test_ambiguous_attribute_across_pristine_tables(self, schema):
        # MAJOR exists in both PALUMNUS and PSTUDENT.
        with pytest.raises(TranslationError):
            translate_sql(
                'SELECT MAJOR FROM PALUMNUS, PSTUDENT WHERE MAJOR = "IS"', schema
            )

    def test_subquery_must_select_one_attribute(self, schema):
        with pytest.raises(TranslationError):
            translate_sql(
                "SELECT ANAME FROM PALUMNUS WHERE AID# IN (SELECT * FROM PCAREER)",
                schema,
            )

    def test_star_subquery_rejected(self, schema):
        with pytest.raises(TranslationError):
            translate_sql(
                "SELECT ANAME FROM PALUMNUS WHERE AID# IN "
                "(SELECT AID#, ONAME FROM PCAREER)",
                schema,
            )
